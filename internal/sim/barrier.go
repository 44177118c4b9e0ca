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
// worker whose devices exhausted their quotas, or whose sink stopped
// taking uploads, calls leave(), shrinking the party count so the
// remaining workers are not stranded waiting for it.
type barrier struct {
	mu      sync.Mutex
	parties int
	waiting int
	gen     chan struct{} // closed to release the current generation
}

func newBarrier(parties int) *barrier {
	return &barrier{parties: parties, gen: make(chan struct{})}
}

// await blocks until every current party arrives. A worker that stops
// early leaves instead, so no party waits for it.
func (b *barrier) await() {
	b.mu.Lock()
	gen := b.gen
	b.waiting++
	if b.waiting >= b.parties {
		b.waiting = 0
		b.gen = make(chan struct{})
		close(gen)
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	<-gen
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
