package sim

import (
	"net/http"
	"sync/atomic"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fleet"
	"hangdoctor/internal/obs"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

// worker.go: the sharded scheduler's inner loop. One worker owns one
// device partition, one event heap, one set of upload buffers, and one
// HTTP transport; nothing on the tick path is shared, so the loop runs
// lock-free and allocation-free between epoch barriers.

// wireBuf is one in-process upload buffer: a preallocated entry slice the
// worker fills with Batch coalesced device uploads, submitted zero-copy
// via SubmitWireAcked. The buffer cycles through the worker's free list —
// it is reusable only after the aggregator's merge-completion ack, because
// the shards merge its entries in place until then.
type wireBuf struct {
	entries []core.WireEntry
	wr      core.WireReport
	ack     *fleet.WireAck
	n       int // device uploads coalesced so far
}

func (b *wireBuf) reset() {
	b.entries = b.entries[:0]
	b.n = 0
}

type worker struct {
	e    *Engine
	id   int
	mode int8
	h    fourHeap

	// Published counter mirrors: written by publish() at epoch
	// boundaries (and by ack callbacks), read by metric projections and
	// the final Stats collection.
	uploads, entriesN, failed, resyncs, serverResyncs, throttled,
	wireBytes, deviceMS, poolHits, poolWaits, epochNum atomic.Int64

	// Tick-local accumulation; folded into the mirrors off the hot path.
	lUploads, lEntries, lFailed, lResyncs, lServerResyncs, lThrottled,
	lWireBytes, lDeviceMS, lPoolHits, lPoolWaits int64

	abortErr error

	// Per-tick draw scratch, shared by every mode (and reused verbatim
	// when a 409 forces the HTTP mode to re-encode the same content).
	hangs [maxEntries]uint8
	rtMS  [maxEntries]uint16

	// In-process sink.
	cur  *wireBuf
	free chan *wireBuf
	nbuf int

	// HTTP sink.
	dw     core.DocWriter
	delta  []string
	devRef [1]uint32
	client *http.Client
	jitter *simrand.Rand // wall-clock backoff only — never content draws

	depthG *obs.Gauge
	waitH  *obs.Histogram
	rttH   *obs.Histogram
}

func (w *worker) init(e *Engine, id, devs int) {
	w.e = e
	w.id = id
	w.mode = e.mode
	w.h.init(devs)
	bufEntries := e.cfg.Batch * e.entriesPer
	switch e.mode {
	case modeInproc:
		w.nbuf = 4
		w.free = make(chan *wireBuf, w.nbuf)
		for i := 0; i < w.nbuf; i++ {
			b := &wireBuf{entries: make([]core.WireEntry, 0, bufEntries)}
			b.ack = fleet.NewWireAck(w.ackFunc(b))
			w.free <- b
		}
	case modeDiscard:
		w.cur = &wireBuf{entries: make([]core.WireEntry, 0, bufEntries)}
	case modeHTTP, modeDiscardHTTP:
		w.delta = make([]string, 0, 4*e.entriesPer+1)
		if e.mode == modeHTTP {
			w.client = e.cfg.Client
			if w.client == nil {
				// One tuned transport per worker: every device this worker
				// simulates reuses the same warm connections to its node.
				w.client = &http.Client{
					Timeout: 30 * time.Second,
					Transport: &http.Transport{
						MaxIdleConns:        16,
						MaxIdleConnsPerHost: 16,
						IdleConnTimeout:     90 * time.Second,
					},
				}
			}
			w.jitter = simrand.New(uint64(e.seed)*0x9e3779b97f4a7c15 + uint64(id) + 1)
		}
	}
}

// ackFunc builds the merge-completion callback for one buffer: account a
// failed batch, then return the buffer to the free list. Runs on an
// aggregator goroutine, hence the direct atomics.
func (w *worker) ackFunc(b *wireBuf) func(error) {
	return func(err error) {
		if err != nil {
			n := int64(b.n)
			w.failed.Add(n)
			w.uploads.Add(-n)
			w.entriesN.Add(-n * int64(w.e.entriesPer))
		}
		b.reset()
		w.free <- b
	}
}

// publish folds tick-local counters into the shared mirrors.
func (w *worker) publish() {
	flush := func(c *atomic.Int64, l *int64) {
		if *l != 0 {
			c.Add(*l)
			*l = 0
		}
	}
	flush(&w.uploads, &w.lUploads)
	flush(&w.entriesN, &w.lEntries)
	flush(&w.failed, &w.lFailed)
	flush(&w.resyncs, &w.lResyncs)
	flush(&w.serverResyncs, &w.lServerResyncs)
	flush(&w.throttled, &w.lThrottled)
	flush(&w.wireBytes, &w.lWireBytes)
	flush(&w.deviceMS, &w.lDeviceMS)
	flush(&w.poolHits, &w.lPoolHits)
	flush(&w.poolWaits, &w.lPoolWaits)
}

// run is the worker goroutine: process every event inside the current
// epoch, flush, rendezvous at the barrier, repeat until the partition's
// quotas drain (leave the barrier and exit) or an aggregator crash unwinds
// it.
func (w *worker) run() {
	defer w.e.wg.Done()
	defer w.e.bar.leave()
	defer w.publish()
	e := w.e
	epochEnd := e.cfg.EpochMS
	epoch := int64(0)
	for {
		for w.h.len() > 0 && w.h.minKey() < epochEnd {
			w.tick()
			if w.abortErr != nil {
				return
			}
		}
		w.flush()
		if w.abortErr != nil {
			return
		}
		if w.h.len() == 0 {
			w.drainBufs()
			return
		}
		epoch++
		w.epochNum.Store(epoch)
		w.publish()
		if w.depthG != nil {
			w.depthG.Set(int64(w.h.len()))
		}
		waitStart := time.Now()
		if !e.bar.await(e.crash) {
			w.abortErr = fleet.ErrCrashed
			return
		}
		if w.waitH != nil {
			w.waitH.Observe(float64(time.Since(waitStart).Microseconds()) / 1e3)
		}
		epochEnd += e.cfg.EpochMS
	}
}

// tick simulates one device upload: draw the tick stream (fixed order —
// restart, then hangs/response per entry, then the cadence advance), emit
// through the sink, and reschedule the device on the heap.
func (w *worker) tick() {
	e := w.e
	dev := w.h.minDev()
	seq := e.seq[dev] + 1
	e.seq[dev] = seq
	r := tickRand{x: streamSeed(e.seed, dev, seq)}
	restart := false
	if rr := r.next(); e.cfg.RestartEvery > 1 && rr%uint64(e.cfg.RestartEvery) == 0 {
		restart = true
	}
	K := e.entriesPer
	for j := 0; j < K; j++ {
		w.hangs[j] = uint8(1 + r.next()%3)
		w.rtMS[j] = uint16(100 + r.next()%1900)
	}
	adv := e.periodMS - e.periodMS/10 + int64(r.next()%uint64(e.jitterMS))
	if adv < 1 {
		adv = 1
	}
	switch w.mode {
	case modeInproc:
		w.emitInproc(dev, restart)
	case modeDiscard:
		w.emitDiscard(dev, restart)
	case modeHTTP:
		w.emitHTTP(dev, restart)
	case modeDiscardHTTP:
		w.emitDiscardHTTP(dev, restart)
	}
	w.lDeviceMS += adv
	e.left[dev]--
	if e.left[dev] == 0 {
		w.h.popMin()
	} else {
		w.h.advanceMin(adv)
	}
}

// fillEntries appends this tick's K wire entries — template identity,
// drawn counters, the device's interned name slice — into the buffer.
// Everything it touches is preallocated: zero allocations warm.
func (w *worker) fillEntries(b *wireBuf, dev uint32) {
	e := w.e
	p := e.pool
	K := e.entriesPer
	base := int(dev) * K
	for j := 0; j < K; j++ {
		t := &e.tmpl[base+j]
		hangs := int(w.hangs[j])
		rt := simclock.Duration(w.rtMS[j]) * simclock.Millisecond
		b.entries = append(b.entries, core.WireEntry{
			App:         p.apps[t.app],
			ActionUID:   p.actions[t.action],
			RootCause:   p.roots[t.op],
			File:        p.files[t.op],
			Line:        opLine(t.op),
			ViaCaller:   opViaCaller(t.op),
			Hangs:       hangs,
			Devices:     e.names[dev : dev+1],
			MaxResponse: rt,
			SumResponse: simclock.Duration(hangs) * rt,
		})
	}
	b.n++
	w.lUploads++
	w.lEntries += int64(K)
}

func (w *worker) emitInproc(dev uint32, restart bool) {
	if restart {
		w.lResyncs++
	}
	b := w.cur
	if b == nil {
		b = w.acquire()
		if b == nil {
			return // abortErr set
		}
		w.cur = b
	}
	w.fillEntries(b, dev)
	if b.n >= w.e.cfg.Batch {
		w.flushInproc()
	}
}

func (w *worker) emitDiscard(dev uint32, restart bool) {
	if restart {
		w.lResyncs++
	}
	w.fillEntries(w.cur, dev)
	if w.cur.n >= w.e.cfg.Batch {
		w.cur.reset()
	}
}

// acquire takes a free buffer, blocking on the merge-completion acks when
// all buffers are in flight (natural backpressure from the aggregator).
// It returns nil — with abortErr set — if the aggregator crashed, since
// crashed acks never come back.
func (w *worker) acquire() *wireBuf {
	select {
	case b := <-w.free:
		w.lPoolHits++
		return b
	default:
	}
	w.lPoolWaits++
	select {
	case b := <-w.free:
		return b
	case <-w.e.crash:
		w.abortErr = fleet.ErrCrashed
		return nil
	}
}

// flush pushes any partial buffer out at an epoch boundary (or at drain),
// so batching trades throughput for at most one epoch of delivery lag.
func (w *worker) flush() {
	switch w.mode {
	case modeInproc:
		w.flushInproc()
	case modeDiscard:
		w.cur.reset()
	}
}

// flushInproc submits the current buffer on the acked zero-copy path and
// relinquishes it until the callback recycles it.
func (w *worker) flushInproc() {
	b := w.cur
	if b == nil || b.n == 0 {
		return
	}
	w.cur = nil
	b.wr.Entries = b.entries
	if err := w.e.cfg.Agg.SubmitWireAcked(&b.wr, b.ack); err != nil {
		// Synchronous rejection (the aggregator is closed): the callback
		// never fires, we still own b.
		n := int64(b.n)
		w.lFailed += n
		w.lUploads -= n
		w.lEntries -= n * int64(w.e.entriesPer)
		b.reset()
		w.free <- b
		w.abortErr = err
	}
}

// drainBufs reclaims every buffer before the worker exits, which is the
// proof that no ack callback can fire after Run returns.
func (w *worker) drainBufs() {
	for i := 0; i < w.nbuf; i++ {
		select {
		case <-w.free:
		case <-w.e.crash:
			w.abortErr = fleet.ErrCrashed
			return
		}
	}
}
