// Package fleet is the server side of the paper's §3.2 field-study loop at
// production scale: many devices upload Hang Bug Reports ((*core.Report)
// documents) and the service aggregates them into one fleet-wide view.
//
// The write path is sharded: an upload takes one of a bounded number of
// admission slots (backpressure, not unbounded buffering, when ingest
// outruns merging), is split on its submitter's goroutine by a stable hash
// of each entry's identity into per-shard fragments, and is merged by N
// single-writer shard goroutines, each owning a private core.Report. Reads
// fold shard snapshots on demand. Because core.Report.Merge is commutative
// and associative, the folded view is byte-identical to a serial merge of
// the same uploads regardless of shard count, batch boundaries, or arrival
// order — the property the determinism tests pin down.
//
// With a WALConfig the aggregator is also durable: a committer goroutine
// appends each upload, whole, to one node log (see wal.go) and routes its
// fragments to the shards only after the durability barrier, so the shards
// stay purely in memory; acknowledgements wait for that barrier, startup
// replays the log (a compacted base, then the uploads behind it) before
// intake opens, and a crash loses nothing it acknowledged.
package fleet

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hangdoctor/internal/core"
)

// Errors the submit paths can return.
var (
	// ErrQueueFull means every admission slot is taken; the caller should
	// back off and retry (the HTTP layer maps it to 429 + Retry-After).
	ErrQueueFull = errors.New("fleet: ingest queue full")
	// ErrClosed means the aggregator is shutting down and accepts no more
	// uploads (mapped to 503).
	ErrClosed = errors.New("fleet: aggregator closed")
	// ErrCrashed means the aggregator was torn down abruptly (the chaos
	// path) while the submission was in flight; the upload was not
	// acknowledged and should be resent after recovery.
	ErrCrashed = errors.New("fleet: aggregator crashed")
)

// Config parameterizes an Aggregator. The zero value is completed by
// defaults suitable for tests and small deployments.
type Config struct {
	// Shards is the number of single-writer merge goroutines; entry keys
	// hash onto them (default 4).
	Shards int
	// QueueDepth bounds the uploads admitted but not yet handed off; beyond
	// it a fail-fast submit gets ErrQueueFull and a waiting one blocks,
	// instead of buffering without limit (default 256).
	QueueDepth int
	// BatchSize is the most fragments a shard folds per merge call; batching
	// amortizes per-wakeup overhead under load without adding latency when
	// idle (default 16). With a WAL it is also the group-commit window: the
	// most uploads one barrier on the node log covers.
	BatchSize int
	// WAL, when non-nil, enables the durability layer: one append-only
	// node log of whole uploads, group-committed ahead of the shard merge,
	// with compaction and replay-on-open.
	WAL *WALConfig
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.WAL != nil {
		c.WAL = c.WAL.withDefaults()
	}
	return c
}

// uploadAck settles one submission. Completion is delivered one of two
// ways: blocking waiters (submitAcked) wait on done, which closes once
// every routed fragment (for a deduplicated resend, every shard's fence)
// has merged, or once the committer failed to make the upload durable;
// callback acks (SubmitWireAcked) carry fn instead, invoked once with the
// outcome — fn-based acks have no done channel and are reusable across
// submissions. err holds the outcome for done's waiter.
type uploadAck struct {
	remaining atomic.Int32
	err       error
	done      chan struct{}
	fn        func(error)
}

func newUploadAck() *uploadAck { return &uploadAck{done: make(chan struct{})} }

// finish delivers the outcome: the callback for fn-based acks, closing done
// for channel-based ones. Called exactly once per submission — by the last
// complete(), or directly by whoever settles the upload without routing
// it: an upload with no fragments, a failed append or barrier.
func (a *uploadAck) finish(err error) {
	if a == nil {
		return
	}
	a.err = err
	if a.fn != nil {
		a.fn(err)
		return
	}
	close(a.done)
}

// complete records one merged fragment; the last one releases the waiter.
func (a *uploadAck) complete() {
	if a != nil && a.remaining.Add(-1) == 0 {
		a.finish(nil)
	}
}

// shardSnap is a shard's reply to a snapshot or delta request: an
// immutable report (the shard's cached persistent snapshot, or the
// changed-entries-only delta) and the shard's state version, read in the
// same shard-goroutine turn so the pair is always consistent.
type shardSnap struct {
	rep     *core.Report
	version uint64
}

// shardMsg is the only thing that crosses into a shard goroutine: a
// fragment to merge (with its upload's ack), a slice of decoded wire
// entries from the binary fast path (optionally carrying the upload's
// health section, which rides shard 0), or a control request (a versioned
// snapshot, with delta set the changes since version since, or with only
// ack set a fence that completes the ack).
type shardMsg struct {
	frag   *core.Report
	wire   []core.WireEntry
	health *core.Health
	ack    *uploadAck
	snap   chan shardSnap
	delta  bool
	since  uint64
}

// payload reports whether the message carries data to merge (as opposed to
// a snapshot/delta/fence control request).
func (m *shardMsg) payload() bool {
	return m.frag != nil || m.wire != nil || m.health != nil
}

// merge folds the message's payload into rep, whichever form it carries.
func (m *shardMsg) merge(rep *core.Report) {
	if m.frag != nil {
		rep.Merge(m.frag)
		return
	}
	if m.health != nil {
		rep.Health.Add(*m.health)
	}
	rep.MergeWireEntries(m.wire)
}

// logged is one upload on its way through the committer: its framed log
// record, its identity, its per-shard fragments and its ack.
type logged struct {
	frame []byte
	id    UploadID
	frags []shardMsg
	ack   *uploadAck
}

// Aggregator is the sharded fleet-report builder.
type Aggregator struct {
	cfg     Config
	slots   chan struct{} // one per upload admitted but not yet handed off
	shards  []chan shardMsg
	metrics *Metrics
	walM    *walMetrics // nil when the WAL is disabled
	// commit feeds the committer, which alone sends payload to the shards
	// of a durable aggregator; nil when the WAL is disabled.
	commit chan logged

	// epoch identifies this aggregator instance in version vectors; shard
	// versions only compare within one epoch.
	epoch uint64

	// foldMu guards the incremental fold cache (keyed by the shard version
	// vector) and the post-drain fold memo. The cached reports are
	// immutable — Fold hands them to many readers.
	foldMu    sync.Mutex
	foldCache core.FoldCache
	foldFinal *core.Report

	// crashCh closes on Crash(): every blocked send, ack wait, and shard
	// loop unwinds through it.
	crashCh chan struct{}

	mu        sync.RWMutex
	closed    bool // no further uploads
	crashed   bool // torn down abruptly; shard state abandoned
	finalized bool // shards exited; finals hold their reports
	finals    []*core.Report

	commitWG sync.WaitGroup
	shardWG  sync.WaitGroup
}

// Open starts the shard goroutines (and, with a WAL, the committer) and
// returns an aggregator ready for uploads. With cfg.WAL set, it first
// replays the node's log into the shards' starting state, splitting each
// record as submit splits a live binary upload — Open does not return (and
// intake does not open) until recovery is complete, and recovery failures
// are returned here.
// Call Close to drain and stop the aggregator.
func Open(cfg Config) (*Aggregator, error) {
	cfg = cfg.withDefaults()
	a := &Aggregator{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.QueueDepth),
		shards:  make([]chan shardMsg, cfg.Shards),
		finals:  make([]*core.Report, cfg.Shards),
		metrics: newMetrics(cfg.QueueDepth),
		epoch:   newEpoch(),
		crashCh: make(chan struct{}),
	}
	starts := make([]*core.Report, cfg.Shards)
	for i := range starts {
		starts[i] = core.NewReport()
	}
	var w *nodeWAL
	if cfg.WAL != nil {
		if cfg.WAL.Dir == "" {
			return nil, errors.New("fleet: WALConfig.Dir must be set")
		}
		a.walM = a.metrics.initWAL()
		var err error
		if w, err = openNodeWAL(cfg.WAL, a.walM, func(wr *core.WireReport) {
			for i, m := range a.split(nil, wr) {
				starts[i].MergeWireEntries(m.wire)
				if m.health != nil {
					starts[i].Health.Add(*m.health)
				}
			}
		}); err != nil {
			return nil, err
		}
		// Sized like a shard channel: two committer batches in flight.
		a.commit = make(chan logged, 2*cfg.BatchSize)
	}
	a.metrics.reg.GaugeFunc("hangdoctor_fleet_queue_depth",
		"Uploads admitted but not yet handed off.",
		func() int64 { return int64(len(a.slots)) })
	for i := range a.shards {
		a.shards[i] = make(chan shardMsg, 2*cfg.BatchSize)
		a.shardWG.Add(1)
		go a.runShard(i, starts[i])
	}
	if w != nil {
		a.commitWG.Add(1)
		go a.runCommitter(w)
	}
	return a, nil
}

// NewAggregator is Open for configurations that cannot fail (no WAL); it
// panics on error, which only a WAL-enabled config can produce.
func NewAggregator(cfg Config) *Aggregator {
	a, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Shards returns the configured shard count.
func (a *Aggregator) Shards() int { return a.cfg.Shards }

// QueueDepth returns the number of uploads admitted but not yet handed off.
func (a *Aggregator) QueueDepth() int { return len(a.slots) }

// Metrics returns the aggregator's counters.
func (a *Aggregator) Metrics() *Metrics { return a.metrics }

// Durable reports whether the WAL layer is enabled.
func (a *Aggregator) Durable() bool { return a.cfg.WAL != nil }

// Draining reports whether shutdown (or a crash) has begun: uploads are
// refused and /healthz should answer 503.
func (a *Aggregator) Draining() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.closed
}

// scrape refreshes the scrape-time gauges that project live shard state
// into the registry — per-shard entry counts, fleet-wide totals, and the
// summed device health — immediately before an exposition is written. It
// reads the reports Fold reads; after a crash every shard reads empty.
// Gauge re-registration is idempotent, so repeated scrapes update the
// same series.
func (a *Aggregator) scrape() {
	a.mu.RLock()
	reps, _, _, ok := a.reports()
	a.mu.RUnlock()
	reg := a.metrics.reg
	shardEntries := reg.GaugeVec("hangdoctor_fleet_shard_entries",
		"Root-cause entries owned by each shard.", "shard")
	var entries, hangs int64
	var health core.Health
	for i := range a.shards {
		var n int
		if ok {
			n = reps[i].Len()
			hangs += int64(reps[i].TotalHangs())
			health.Add(reps[i].Health)
		}
		shardEntries.With(strconv.Itoa(i)).Set(int64(n))
		entries += int64(n)
	}
	reg.Gauge("hangdoctor_fleet_entries", "Distinct root causes fleet-wide.").Set(entries)
	reg.Gauge("hangdoctor_fleet_hangs", "Diagnosed soft hangs fleet-wide.").Set(hangs)
	health.EachCounter(func(stem string, v int) {
		reg.Gauge("hangdoctor_fleet_health_"+stem,
			"Summed degraded-mode health counter across devices.").Set(int64(v))
	})
}

// submit is the one way in for uploads, run on the submitter's goroutine.
// It refuses uploads after Close, takes an admission slot (waiting if
// block, else failing fast with ErrQueueFull), counts the upload, splits
// it and hands it on — to the shards on a memory-only node, or as its log
// record plus fragments to the committer on a durable one — then gives the
// slot back. Exactly one of rep and wr is set; id is the upload's content
// hash or zero; ack, if set, settles once the upload has merged.
//
// The read lock is held until the hand-off lands, so Close and Crash, which
// take the write lock, never close a channel under a submitter. Nor does
// the hand-off need a crash arm: crashCh closes only under the write lock,
// and until then the shards and the committer keep draining.
func (a *Aggregator) submit(rep *core.Report, wr *core.WireReport, id UploadID, ack *uploadAck, block bool) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		a.metrics.rejected.Inc()
		return ErrClosed
	}
	if block {
		a.slots <- struct{}{}
	} else {
		select {
		case a.slots <- struct{}{}:
		default:
			a.metrics.rejected.Inc()
			return ErrQueueFull
		}
	}
	a.metrics.accepted.Inc()
	frags := a.split(rep, wr)
	if a.commit == nil {
		a.route(frags, ack)
	} else {
		if rep == nil {
			rep = wr.Report() // the log holds reports
		}
		frame, id := uploadRecord(rep, id)
		a.commit <- logged{frame: frame, id: id, frags: frags, ack: ack}
	}
	<-a.slots
	return nil
}

// SubmitWait submits one validated upload, waiting for an admission slot,
// and returns once it is handed off — to the shards' channels, or with a
// WAL to the committer — not merged. The aggregator owns the report from
// then on. Bulk importers (cmd/fleet) and benchmarks use it; devices go
// through the HTTP handlers, which fail fast so overload turns into
// backpressure.
func (a *Aggregator) SubmitWait(rep *core.Report) error {
	return a.submit(rep, nil, UploadID{}, nil, true)
}

// WireAck is a reusable merge-completion acknowledgement for
// SubmitWireAcked. The callback fires only after every routed fragment
// has merged (or, durably, passed the WAL barrier). That is the signal a
// zero-copy producer needs to recycle the buffer its wire entries alias:
// splitting copies entry values into per-shard runs, but the shards read
// their Devices slices, and the upload's health section, from the
// producer's buffers until they are done merging.
//
// A WireAck tracks one in-flight submission at a time; reusing it for the
// next upload is only legal after the callback fires. The callback runs on
// an aggregator goroutine, or, for an upload with nothing to route on a
// memory-only node, on the submitting goroutine before SubmitWireAcked
// returns. Either way it must be cheap and must not call back into the
// aggregator.
type WireAck struct {
	ack uploadAck
}

// NewWireAck returns a reusable ack whose fn is invoked once per
// acknowledged submission with the first fragment error (nil on success).
func NewWireAck(fn func(error)) *WireAck {
	if fn == nil {
		panic("fleet: NewWireAck requires a callback")
	}
	w := &WireAck{}
	w.ack.fn = fn
	return w
}

// SubmitWireAcked submits one decoded binary upload on the zero-copy path
// and arranges for wa's callback to fire when every routed fragment has
// merged. It waits for an admission slot (producers that want
// backpressure, not rejection). ErrClosed is returned synchronously, and
// then the callback never fires — the caller still owns the buffer.
func (a *Aggregator) SubmitWireAcked(wr *core.WireReport, wa *WireAck) error {
	return a.submit(nil, wr, UploadID{}, &wa.ack, true)
}

// Crashed returns a channel that closes when the aggregator is torn down
// abruptly via Crash. Producers blocked on resources owned by in-flight
// acks (pooled upload buffers whose callbacks will never fire) select on it
// to unwind instead of deadlocking.
func (a *Aggregator) Crashed() <-chan struct{} { return a.crashCh }

// SubmitDurable submits one upload and waits until it is durable per the
// WAL's sync policy and merged (without a WAL, merged). id is the upload's
// content hash (ReportUploadID), or zero to have the aggregator derive it
// from the canonical encoding it logs anyway; an upload whose id is
// already durable is acknowledged, once its first copy has merged, without
// being logged or merged again, so resending after a crash, a 5xx, or a
// lost response is idempotent.
// With every admission slot taken it fails fast with ErrQueueFull.
func (a *Aggregator) SubmitDurable(rep *core.Report, id UploadID) error {
	return a.submitAcked(rep, nil, id)
}

// submitAcked is the device-facing submit behind SubmitDurable and both
// upload handlers: it fails fast when no admission slot is free, then,
// with the lock released, waits for the upload's ack, so a nil return
// means merged and, with a WAL, durable first.
func (a *Aggregator) submitAcked(rep *core.Report, wr *core.WireReport, id UploadID) error {
	ack := newUploadAck()
	if err := a.submit(rep, wr, id, ack, false); err != nil {
		return err
	}
	select {
	case <-ack.done:
		return ack.err
	case <-a.crashCh:
		// The ack may still land; prefer it if it already has.
		select {
		case <-ack.done:
			return ack.err
		default:
			return ErrCrashed
		}
	}
}

// split cuts an upload into one message per shard, in the upload's own
// form: a report into fragment reports (Report.Split), a decoded binary
// upload into per-shard runs of its already-keyed entries, routed by
// core.ShardIndexKey, with its health section riding shard 0. The runs
// are cut from one backing array: split hashes each entry once, counts
// each shard's run, then fills the runs in upload order. A shard's
// message is empty when it gets nothing.
func (a *Aggregator) split(rep *core.Report, wr *core.WireReport) []shardMsg {
	n := a.cfg.Shards
	msgs := make([]shardMsg, n)
	if wr == nil {
		for i, frag := range rep.Split(n) {
			msgs[i].frag = frag
		}
		return msgs
	}
	ents := wr.Entries
	scratch := make([]int, len(ents)+n) // each entry's shard, then each shard's run length
	shardOf, runs := scratch[:len(ents)], scratch[len(ents):]
	for i := range ents {
		s := core.ShardIndexKey(ents[i].Key, n)
		shardOf[i] = s
		runs[s]++
	}
	backing := make([]core.WireEntry, len(ents))
	off := 0
	for s, l := range runs {
		if l > 0 {
			msgs[s].wire = backing[off : off : off+l]
			off += l
		}
	}
	for i, s := range shardOf {
		msgs[s].wire = append(msgs[s].wire, ents[i])
	}
	if !wr.Health.Zero() {
		msgs[0].health = &wr.Health
	}
	return msgs
}

// route sends an upload's non-empty fragments to their shards; the shard
// that merges the last one completes the ack. It returns false if a crash
// unwound it, which only the committer, running without the lock, can see.
func (a *Aggregator) route(frags []shardMsg, ack *uploadAck) bool {
	if ack != nil {
		n := 0
		for i := range frags {
			if frags[i].payload() {
				n++
			}
		}
		if n == 0 {
			ack.finish(nil)
			return true
		}
		// The count must be set before the first fragment can complete.
		ack.remaining.Store(int32(n))
	}
	for i, m := range frags {
		if !m.payload() {
			continue
		}
		m.ack = ack
		select {
		case a.shards[i] <- m:
		case <-a.crashCh:
			return false
		}
	}
	return true
}

// runCommitter is the single writer of the node log. It drains up to
// BatchSize uploads at a time, makes them durable with one group-commit
// barrier (commitBatch), and only then routes their fragments to the
// shards. Because it is the only sender of payload on the shard channels,
// a snapshot request it queues behind the fragments it routed is answered
// with exactly the state its records built: that is the compaction cut.
// On a clean drain it compacts the log one final time; a crash abandons
// the log as it stands.
func (a *Aggregator) runCommitter(w *nodeWAL) {
	defer a.commitWG.Done()
	defer w.close()
	batch := make([]logged, 0, a.cfg.BatchSize)
	for {
		var l logged
		var ok bool
		select {
		case <-a.crashCh:
			return
		case l, ok = <-a.commit:
		}
		if !ok {
			// Clean drain: the next boot replays one base record instead
			// of the whole tail.
			if w.records > 0 || w.dirty {
				a.compact(w)
			}
			return
		}
		batch = append(batch[:0], l)
	drain:
		for len(batch) < a.cfg.BatchSize {
			select {
			case l, ok := <-a.commit:
				if !ok {
					break drain
				}
				batch = append(batch, l)
			default:
				break drain
			}
		}
		if !a.commitBatch(w, batch) {
			return
		}
		if w.records >= a.cfg.WAL.CompactEvery*a.cfg.Shards {
			a.compact(w)
		}
	}
}

// commitBatch makes one batch of uploads durable and routes the survivors
// to the shards:
//
//  1. an upload whose ID is in the dedup window or earlier in this batch
//     is not logged again; it is acked once its first copy has merged, or
//     nacked if that copy was in this batch and failed the barrier;
//  2. the others are appended to the log, one record each; an append
//     failure nacks just that upload (the tail is repaired before the next
//     append);
//  3. one barrier covers the batch (group commit; SyncAlways moves the
//     barrier inside the loop, SyncOff makes it a no-op). A failed barrier
//     rolls the log back to the last durable watermark and nacks every
//     upload appended since;
//  4. only uploads past the barrier enter the dedup window and reach the
//     shards — the in-memory report never holds state the log could lose.
//
// It returns false if a crash unwound the routing.
func (a *Aggregator) commitBatch(w *nodeWAL, batch []logged) bool {
	appended := batch[:0] // in place: appended never overtakes the loop
	var dups []logged
	for _, l := range batch {
		if w.dedup.has(l.id) || slices.ContainsFunc(appended, func(o logged) bool { return o.id == l.id }) {
			a.walM.deduped.Inc()
			dups = append(dups, l)
			continue
		}
		err := w.append(l.frame)
		if err == nil && a.cfg.WAL.Sync == SyncAlways {
			err = w.barrier()
		}
		if err != nil {
			l.ack.finish(err)
			continue
		}
		appended = append(appended, l)
	}
	var err error
	if len(appended) > 0 && a.cfg.WAL.Sync != SyncAlways {
		err = w.barrier()
	}
	if err != nil {
		// Nothing appended in this batch is durable (the log was rolled
		// back to the last durable watermark).
		for _, l := range appended {
			l.ack.finish(err)
		}
		appended = nil
	}
	for _, l := range appended {
		w.dedup.add(l.id)
		if !a.route(l.frags, l.ack) {
			return false
		}
	}
	for _, l := range dups {
		if err != nil && !w.dedup.has(l.id) {
			l.ack.finish(err) // its first copy was in this batch
			continue
		}
		// A fence on every shard: each completes it only after merging
		// what was queued ahead of it, the first copy's fragments included.
		if l.ack != nil {
			l.ack.remaining.Store(int32(a.cfg.Shards))
		}
		for _, ch := range a.shards {
			select {
			case ch <- shardMsg{ack: l.ack}:
			case <-a.crashCh:
				return false
			}
		}
	}
	return true
}

// compact folds the state the log's records built and compacts the log
// into it. A failure is counted, not returned: the log stays replayable,
// so the committer keeps appending to it and the next batch retries, and
// after a failed final compaction the next boot replays the tail.
func (a *Aggregator) compact(w *nodeWAL) {
	reps, _, ok := a.gather(nil)
	if !ok {
		return // crashed: recovery replays the log as it stands
	}
	if err := w.compact(core.FoldReportsShared(reps...)); err != nil {
		a.walM.compactionErrors.Inc()
		return
	}
	a.walM.compactions.Inc()
}

// runShard is a single-writer merge loop: only this goroutine ever touches
// its core.Report, which starts as the shard's share of the recovered
// state. Fragments are drained in batches of up to BatchSize per merge
// call, and control messages (snapshots, deltas, fences) are answered
// between batches, so they observe merge-complete states only.
func (a *Aggregator) runShard(i int, rep *core.Report) {
	defer a.shardWG.Done()
	ch := a.shards[i]
	batch := make([]shardMsg, 0, a.cfg.BatchSize)
	ctrl := make([]shardMsg, 0, 4)
	// cache versions rep: merges stamp the leaves they write and bump the
	// version once per batch. A read hands out rep's trie as it stands
	// (the cached one while the version is unchanged), and the first merge
	// after it copies the nodes and entries it writes.
	cache := core.NewSnapshotCache(rep)
	serve := func(m shardMsg) {
		switch {
		case m.delta:
			d, v := cache.DeltaSince(m.since)
			m.snap <- shardSnap{rep: d, version: v}
		case m.snap != nil:
			if cache.Cached() {
				a.metrics.snapshotReuses.Inc()
			}
			m.snap <- shardSnap{rep: cache.Snapshot(), version: cache.Version()}
		default:
			m.ack.complete() // a fence: everything queued before it has merged
		}
	}
	for {
		var msg shardMsg
		var ok bool
		select {
		case <-a.crashCh:
			// Abandoned abruptly: no acks. Whatever the node log holds is
			// what recovery will see.
			return
		case msg, ok = <-ch:
			if !ok {
				a.finals[i] = rep
				return
			}
		}
		if !msg.payload() {
			serve(msg)
			continue
		}
		batch = append(batch[:0], msg)
		ctrl = ctrl[:0]
	drain:
		for len(batch) < a.cfg.BatchSize {
			select {
			case m2, ok := <-ch:
				if !ok {
					break drain
				}
				if !m2.payload() {
					// Answer after the in-flight batch merges.
					ctrl = append(ctrl, m2)
					break drain
				}
				batch = append(batch, m2)
			default:
				break drain
			}
		}
		a.processBatch(rep, cache, batch)
		for _, m2 := range ctrl {
			serve(m2)
		}
	}
}

// processBatch merges one batch of fragments into the shard's report,
// bumps its snapshot version once, and completes the fragments' acks.
func (a *Aggregator) processBatch(rep *core.Report, sc *core.SnapshotCache, batch []shardMsg) {
	start := time.Now()
	for i := range batch {
		batch[i].merge(rep)
	}
	sc.Bump()
	a.metrics.noteMerge(len(batch), time.Since(start))
	for _, m := range batch {
		m.ack.complete()
	}
}

// Fold returns the folded fleet report. While traffic is in flight the
// result is a consistent merge-boundary snapshot per shard (not a global
// cut); once the aggregator is closed and drained it is the exact fleet
// total, byte-identical in Export/Render to a serial merge of every
// accepted upload. The read path is incremental: each shard serves a
// versioned persistent snapshot (free when the shard hasn't changed),
// and the aggregator re-merges only shards whose version moved, so fold
// cost scales with change, not with accumulated state. The returned
// report is IMMUTABLE and shared with other readers — treat it (and
// everything reachable from it) as read-only. After a Crash it returns an
// empty report (counted in hangdoctor_fleet_fold_errors_total) — reopen
// the WAL directory to recover.
func (a *Aggregator) Fold() *core.Report {
	rep, _ := a.FoldVersioned()
	return rep
}

// Epoch identifies this aggregator instance in version vectors.
func (a *Aggregator) Epoch() uint64 { return a.epoch }

// FoldVersioned is Fold plus the shard version vector the fold covers —
// the value a delta-polling client echoes back as /v1/snapshot?since=.
func (a *Aggregator) FoldVersioned() (*core.Report, VersionVector) {
	start := time.Now()
	defer func() { a.metrics.noteFold(time.Since(start)) }()
	a.mu.RLock()
	defer a.mu.RUnlock()
	reps, vers, final, ok := a.reports()
	if !ok {
		a.metrics.foldErrors.Inc()
		return core.NewReport(), VersionVector{}
	}
	a.foldMu.Lock()
	defer a.foldMu.Unlock()
	if final {
		// Post-drain state is frozen: fold once, serve the memo forever.
		if a.foldFinal == nil {
			a.foldFinal = core.FoldReportsShared(reps...)
		} else {
			a.metrics.foldCacheHits.Inc()
		}
		return a.foldFinal, VersionVector{Epoch: a.epoch}
	}
	rep, hit := a.foldCache.Update(reps, vers)
	if hit {
		a.metrics.foldCacheHits.Inc()
	}
	return rep, VersionVector{Epoch: a.epoch, Shards: vers}
}

// reports returns every shard's report: while the shards run, its cached
// persistent snapshot and version (a gather); once Close has drained them,
// its final report, with final set. ok is false after a crash, or when one
// unwound the gather. The caller holds a.mu.RLock, which reports drops
// while it waits out the drain.
func (a *Aggregator) reports() (reps []*core.Report, vers []uint64, final, ok bool) {
	switch {
	case a.crashed:
		return nil, nil, false, false
	case a.finalized:
		// The shard channels are closed: wait for the drain to finish
		// (outside the lock) and read the final reports directly.
		a.mu.RUnlock()
		a.shardWG.Wait()
		a.mu.RLock()
		return a.finals, nil, true, true
	}
	reps, vers, ok = a.gather(nil)
	return reps, vers, false, ok
}

// gather collects one (report, version) pair from every shard: its cached
// persistent snapshot when since is nil, else its changes since
// version since[i]. Callers must hold a.mu.RLock with the shards live, or
// be the committer, which runs only while they are; ok is false if a crash
// unwound the gather.
func (a *Aggregator) gather(since []uint64) (reps []*core.Report, vers []uint64, ok bool) {
	replies := make([]chan shardSnap, a.cfg.Shards)
	for i, ch := range a.shards {
		replies[i] = make(chan shardSnap, 1)
		m := shardMsg{snap: replies[i]}
		if since != nil {
			m.delta, m.since = true, since[i]
		}
		select {
		case ch <- m:
		case <-a.crashCh:
			return nil, nil, false
		}
	}
	reps = make([]*core.Report, a.cfg.Shards)
	vers = make([]uint64, a.cfg.Shards)
	for i := range replies {
		select {
		case s := <-replies[i]:
			reps[i], vers[i] = s.rep, s.version
		case <-a.crashCh:
			return nil, nil, false
		}
	}
	return reps, vers, true
}

// Delta answers a delta-snapshot poll: given the vector a client captured
// from a previous response, it returns an immutable report holding only
// the entries changed since then (plus the fleet's full health section,
// which is absolute and rides every delta), the current vector, and
// delta=true. A vector from another epoch (node restart), a different
// shard count, or a torn-down aggregator cannot be compared — the reply
// degrades to the full fold with delta=false, which is the self-healing
// resync path.
func (a *Aggregator) Delta(since VersionVector) (rep *core.Report, vec VersionVector, delta bool) {
	if since.Epoch != a.epoch || len(since.Shards) != a.cfg.Shards {
		rep, vec = a.FoldVersioned()
		return rep, vec, false
	}
	a.mu.RLock()
	if a.crashed || a.finalized {
		a.mu.RUnlock()
		rep, vec = a.FoldVersioned()
		return rep, vec, false
	}
	deltas, vers, ok := a.gather(since.Shards)
	a.mu.RUnlock()
	if !ok {
		a.metrics.foldErrors.Inc()
		return core.NewReport(), VersionVector{}, false
	}
	for i, v := range vers {
		if v < since.Shards[i] {
			// A shard version below the client's is impossible within one
			// epoch; resync in full rather than serve a nonsense delta.
			rep, vec = a.FoldVersioned()
			return rep, vec, false
		}
	}
	return core.FoldReportsShared(deltas...), VersionVector{Epoch: a.epoch, Shards: vers}, true
}

// Close drains and stops the aggregator: no new uploads are accepted, but
// every upload already admitted is handed off and merged before Close
// returns, so a graceful shutdown loses nothing it acknowledged. With a
// WAL, the committer drains and compacts the log one final time before the
// shards stop, so a clean restart replays one base record and no tail.
// Close is idempotent.
func (a *Aggregator) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		// Whether the first teardown was a Close or a Crash, the waitgroups
		// terminate; wait so the WAL directory is quiescent on return.
		a.wait()
		return
	}
	// The write lock waited out every submit in hand-off, and closed keeps
	// new ones out.
	a.closed = true
	a.mu.Unlock()

	if a.commit != nil {
		// Submitters were its only senders. The committer's final
		// compaction gathers from the shards, so they stay open until it is
		// done.
		close(a.commit)
		a.commitWG.Wait()
	}
	// finalized must flip in the same critical section that closes the shard
	// channels: a snapshot that sees finalized==false is about to send a
	// control message, and a send may never race a close.
	a.mu.Lock()
	a.finalized = true
	for _, ch := range a.shards {
		close(ch)
	}
	a.mu.Unlock()
	a.shardWG.Wait()
}

// Crash tears the aggregator down abruptly — no drain, no final
// compaction, no acks: the process-kill model the crash-recovery tests
// and the chaos harness exercise. Whatever the node log physically holds
// is what a subsequent Open of the same WAL directory recovers. In-flight
// SubmitDurable calls return ErrCrashed (their uploads are unacknowledged
// and safe to resend). Crash is idempotent; Crash after Close is a no-op.
func (a *Aggregator) Crash() {
	a.mu.Lock()
	if a.closed {
		crashed := a.crashed
		a.mu.Unlock()
		if crashed {
			// A concurrent Crash won the race; wait out its teardown so the
			// committer is no longer touching the WAL directory when this
			// call returns (callers immediately reopen that directory).
			a.wait()
		}
		return
	}
	a.closed, a.crashed, a.finalized = true, true, true
	close(a.crashCh)
	a.mu.Unlock()
	a.wait()
}

// wait blocks until the committer and every shard exited.
func (a *Aggregator) wait() { a.commitWG.Wait(); a.shardWG.Wait() }

// String describes the aggregator's shape for logs.
func (a *Aggregator) String() string {
	wal := "off"
	if a.cfg.WAL != nil {
		wal = fmt.Sprintf("dir=%s sync=%s compact-every=%d", a.cfg.WAL.Dir, a.cfg.WAL.Sync, a.cfg.WAL.CompactEvery)
	}
	return fmt.Sprintf("fleet.Aggregator{shards=%d queue=%d batch=%d wal=%s}",
		a.cfg.Shards, a.cfg.QueueDepth, a.cfg.BatchSize, wal)
}
