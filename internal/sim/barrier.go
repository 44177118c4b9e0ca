package sim

import "sync"

// barrier.go: the epoch synchronizer. Workers advance virtual time
// independently inside an epoch (Δ simulated ms) and rendezvous here at
// each epoch boundary — a coarse barrier instead of a global clock lock,
// so the only cross-worker coordination cost is one mutex acquisition per
// worker per epoch, while no worker's virtual time can run more than one
// epoch ahead of another's (bounded skew keeps the aggregate upload
// cadence realistic).
//
// The barrier is cyclic (reused every epoch) and supports departure: a
// worker whose devices exhausted their quotas calls leave(), shrinking the
// party count so the remaining workers are not stranded waiting for it.
type barrier struct {
	mu      sync.Mutex
	parties int
	waiting int
	gen     chan struct{} // closed to release the current generation
}

func newBarrier(parties int) *barrier {
	return &barrier{parties: parties, gen: make(chan struct{})}
}

// await blocks until every current party arrives, or crash closes (the
// aggregator died); it reports whether the barrier opened normally. A nil
// crash channel never fires.
func (b *barrier) await(crash <-chan struct{}) bool {
	b.mu.Lock()
	gen := b.gen
	b.waiting++
	if b.waiting >= b.parties {
		b.waiting = 0
		b.gen = make(chan struct{})
		close(gen)
		b.mu.Unlock()
		return true
	}
	b.mu.Unlock()
	select {
	case <-gen:
		return true
	case <-crash:
		return false
	}
}

// leave removes one party permanently. If the departing worker was the
// last arrival the others were waiting on, the current generation opens.
func (b *barrier) leave() {
	b.mu.Lock()
	b.parties--
	if b.parties > 0 && b.waiting >= b.parties {
		b.waiting = 0
		gen := b.gen
		b.gen = make(chan struct{})
		close(gen)
	}
	b.mu.Unlock()
}
