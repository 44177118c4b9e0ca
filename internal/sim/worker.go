package sim

import (
	"errors"
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
// device partition, one event heap, one upload buffer, and one HTTP
// transport; nothing on the tick path is shared, so the loop runs
// lock-free and allocation-free between epoch barriers.

// wireBuf is the worker's one upload buffer: a preallocated entry slice
// the worker fills with Batch coalesced device uploads. The in-process
// sink submits it zero-copy with SubmitWire, which routes it in place and
// returns once the aggregator no longer touches it, so the worker refills
// it right away and its routing arrays stay warm.
type wireBuf struct {
	entries []core.WireEntry
	wr      core.WireReport
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
	// boundaries, read by metric projections and the final Stats
	// collection.
	uploads, entriesN, failed, resyncs, serverResyncs, throttled,
	wireBytes, deviceMS, epochNum atomic.Int64

	// Tick-local accumulation; folded into the mirrors off the hot path.
	lUploads, lEntries, lFailed, lResyncs, lServerResyncs, lThrottled,
	lWireBytes, lDeviceMS int64

	abortErr error

	// Per-tick draw scratch, shared by every mode (and reused verbatim
	// when a 409 forces the HTTP mode to re-encode the same content).
	hangs [maxEntries]uint8
	rtMS  [maxEntries]uint16

	// In-process and discard sinks.
	buf wireBuf

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
	switch e.mode {
	case modeInproc, modeDiscard:
		w.buf.entries = make([]core.WireEntry, 0, e.cfg.Batch*e.entriesPer)
	case modeHTTP, modeDiscardHTTP:
		w.delta = make([]string, 0, 4*e.entriesPer+1)
		if e.mode == modeHTTP {
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
			w.jitter = simrand.New(uint64(e.seed)*0x9e3779b97f4a7c15 + uint64(id) + 1)
		}
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
}

// run is the worker goroutine: process every event inside the current
// epoch, flush, rendezvous at the barrier, repeat until the partition's
// quotas drain or the aggregator stops taking uploads; either way it
// leaves the barrier and exits.
func (w *worker) run() {
	defer w.e.wg.Done()
	defer w.e.bar.leave()
	defer w.publish()
	e := w.e
	epochEnd := int64(epochMS)
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
			return
		}
		epoch++
		w.epochNum.Store(epoch)
		w.publish()
		if w.depthG != nil {
			w.depthG.Set(int64(w.h.len()))
		}
		waitStart := time.Now()
		e.bar.await()
		if w.waitH != nil {
			w.waitH.Observe(float64(time.Since(waitStart).Microseconds()) / 1e3)
		}
		epochEnd += epochMS
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
	adv := periodMS - periodMS/10 + int64(r.next()%jitterMS)
	if adv < 1 {
		adv = 1
	}
	switch w.mode {
	case modeInproc, modeDiscard:
		w.emitBuffered(dev, restart)
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

// emitBuffered fills this tick's upload into the worker's buffer and
// flushes the buffer once it holds Batch uploads.
func (w *worker) emitBuffered(dev uint32, restart bool) {
	if restart {
		w.lResyncs++
	}
	w.fillEntries(&w.buf, dev)
	if w.buf.n >= w.e.cfg.Batch {
		w.flush()
	}
}

// flush pushes the buffer out at Batch uploads and at every epoch
// boundary, so batching trades throughput for at most one epoch of
// delivery lag: the in-process sink submits it on the zero-copy path, the
// discard sink drops it. A rejected or failed submission counts the
// batch as failed; a closed or crashed aggregator aborts the run.
func (w *worker) flush() {
	b := &w.buf
	if b.n == 0 {
		return
	}
	if w.mode == modeInproc {
		b.wr.Entries = b.entries
		if err := w.e.cfg.Agg.SubmitWire(&b.wr); err != nil {
			n := int64(b.n)
			w.lFailed += n
			w.lUploads -= n
			w.lEntries -= n * int64(w.e.entriesPer)
			if errors.Is(err, fleet.ErrClosed) || errors.Is(err, fleet.ErrCrashed) {
				w.abortErr = err
			}
		}
	}
	b.reset()
}
