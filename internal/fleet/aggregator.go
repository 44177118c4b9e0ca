// Package fleet is the server side of the paper's §3.2 field-study loop at
// production scale: many devices upload Hang Bug Reports ((*core.Report)
// documents) and the service aggregates them into one fleet-wide view.
//
// The write path is sharded: an upload is accepted into a bounded intake
// queue (backpressure, not unbounded buffering, when ingest outruns
// merging), split by a stable hash of each entry's identity into per-shard
// fragments, and merged by N single-writer shard goroutines, each owning a
// private core.Report. Reads fold shard snapshots on demand. Because
// core.Report.Merge is commutative and associative, the folded view is
// byte-identical to a serial merge of the same uploads regardless of shard
// count, batch boundaries, or arrival order — the property the determinism
// tests pin down.
//
// With a WALConfig the aggregator is also durable: a committer goroutine
// appends each upload, whole, to one node log (see wal.go) and routes its
// fragments to the shards only after the durability barrier, so the shards
// stay purely in memory; acknowledgements wait for that barrier, startup
// replays snapshot-then-tail before intake opens, and a crash loses nothing
// it acknowledged.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hangdoctor/internal/core"
)

// Errors the submit paths can return.
var (
	// ErrQueueFull means the intake queue is at capacity; the caller should
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
	// QueueDepth bounds the intake queue; a full queue rejects uploads with
	// ErrQueueFull instead of buffering without limit (default 256).
	QueueDepth int
	// BatchSize is the most fragments a shard folds per merge call; batching
	// amortizes per-wakeup overhead under load without adding latency when
	// idle (default 16). With a WAL it is also the group-commit window: the
	// most uploads one barrier on the node log covers.
	BatchSize int
	// Dispatchers is the number of goroutines splitting queued uploads into
	// per-shard fragments; splitting hashes every entry, so it must scale
	// alongside the shards or it becomes the serial bottleneck (default:
	// max(Shards, GOMAXPROCS/2)).
	Dispatchers int
	// WAL, when non-nil, enables the durability layer: one append-only
	// node log of whole uploads, group-committed ahead of the shard merge,
	// with snapshot compaction and replay-on-open.
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
	if c.Dispatchers <= 0 {
		c.Dispatchers = c.Shards
		if half := runtime.GOMAXPROCS(0) / 2; half > c.Dispatchers {
			c.Dispatchers = half
		}
	}
	if c.WAL != nil {
		c.WAL = c.WAL.withDefaults()
	}
	return c
}

// ShardStats is one shard's cheap self-description, served from inside the
// shard goroutine so no reader ever touches single-writer state.
type ShardStats struct {
	Entries int
	Hangs   int
	Health  core.Health
}

// upload is one queued submission: the report (or, for the binary fast
// path, the decoded wire view), its content-hash identity (zero unless the
// submitter supplied it; a durable dispatcher derives a zero one from the
// log record it encodes), and the optional ack that settles it (see
// uploadAck). Exactly one of rep/wire is set.
type upload struct {
	rep  *core.Report
	wire *core.WireReport
	id   UploadID
	ack  *uploadAck
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
// health section, which rides shard 0), or a control request (stats, a
// versioned snapshot, with delta set the changes since version since, or
// with only ack set a fence that completes the ack).
type shardMsg struct {
	frag   *core.Report
	wire   []core.WireEntry
	health *core.Health
	ack    *uploadAck
	stats  chan ShardStats
	snap   chan shardSnap
	delta  bool
	since  uint64
}

// payload reports whether the message carries data to merge (as opposed to
// a stats/snapshot/delta control request).
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

// mark records the payload's entry keys in the shard's snapshot cache so
// the next snapshot re-clones only what this merge changed.
func (m *shardMsg) mark(sc *core.SnapshotCache) {
	if m.frag != nil {
		sc.MarkReport(m.frag)
		return
	}
	sc.MarkWireEntries(m.wire)
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
	intake  chan *upload
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

	dispatchWG sync.WaitGroup
	commitWG   sync.WaitGroup
	shardWG    sync.WaitGroup
}

// Open starts the shard and dispatcher goroutines and returns an
// aggregator ready for uploads. With cfg.WAL set, it first replays the
// node's snapshot and log tail and splits the recovered report into the
// shards' starting state — Open does not return (and intake does not open)
// until recovery is complete, and recovery failures are returned here.
// Call Close to drain and stop the aggregator.
func Open(cfg Config) (*Aggregator, error) {
	cfg = cfg.withDefaults()
	a := &Aggregator{
		cfg:     cfg,
		intake:  make(chan *upload, cfg.QueueDepth),
		shards:  make([]chan shardMsg, cfg.Shards),
		finals:  make([]*core.Report, cfg.Shards),
		metrics: newMetrics(cfg.QueueDepth),
		epoch:   newEpoch(),
		crashCh: make(chan struct{}),
	}
	starts := make([]*core.Report, cfg.Shards)
	var w *nodeWAL
	if cfg.WAL != nil {
		if cfg.WAL.Dir == "" {
			return nil, errors.New("fleet: WALConfig.Dir must be set")
		}
		a.walM = a.metrics.initWAL()
		var rep *core.Report
		var err error
		if w, rep, err = openNodeWAL(cfg.WAL, a.walM); err != nil {
			return nil, err
		}
		starts = rep.Split(cfg.Shards)
		// Sized like a shard channel: two committer batches in flight.
		a.commit = make(chan logged, 2*cfg.BatchSize)
	}
	a.metrics.reg.GaugeFunc("hangdoctor_fleet_queue_depth",
		"Current intake backlog.",
		func() int64 { return int64(len(a.intake)) })
	for i := range a.shards {
		a.shards[i] = make(chan shardMsg, 2*cfg.BatchSize)
		rep := starts[i]
		if rep == nil {
			rep = core.NewReport()
		}
		a.shardWG.Add(1)
		go a.runShard(i, rep)
	}
	if w != nil {
		a.commitWG.Add(1)
		go a.runCommitter(w)
	}
	for i := 0; i < cfg.Dispatchers; i++ {
		a.dispatchWG.Add(1)
		go a.runDispatcher()
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

// QueueDepth returns the current intake backlog.
func (a *Aggregator) QueueDepth() int { return len(a.intake) }

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

// AggregatorSnapshot is one consistent read of the aggregator's state:
// the ingestion counters (with the merge triple read atomically), the
// live queue backlog, and every shard's self-description. It backs
// /healthz, /metrics.json, and the shutdown log line, so all three
// surfaces describe the same moment instead of re-reading counters that
// advanced between them.
type AggregatorSnapshot struct {
	MetricsSnapshot
	QueueDepth int          `json:"queue_depth"`
	Shards     []ShardStats `json:"shards"`
}

// Entries sums root-cause entries across shards.
func (s AggregatorSnapshot) Entries() int {
	n := 0
	for _, st := range s.Shards {
		n += st.Entries
	}
	return n
}

// Hangs sums diagnosed hangs across shards.
func (s AggregatorSnapshot) Hangs() int {
	n := 0
	for _, st := range s.Shards {
		n += st.Hangs
	}
	return n
}

// Snapshot reads the counters, the queue depth, and the shard stats in
// that order. Shard stats are answered at merge boundaries, so while
// traffic is in flight the counters may be slightly ahead of the shard
// view — but each piece is internally consistent.
func (a *Aggregator) Snapshot() AggregatorSnapshot {
	return AggregatorSnapshot{
		MetricsSnapshot: a.metrics.Snapshot(),
		QueueDepth:      a.QueueDepth(),
		Shards:          a.ShardStats(),
	}
}

// scrape refreshes the scrape-time gauges that project live shard state
// into the registry — per-shard entry counts, fleet-wide totals, and the
// summed device health — immediately before an exposition is written.
// Gauge re-registration is idempotent, so repeated scrapes update the
// same series.
func (a *Aggregator) scrape() {
	stats := a.ShardStats()
	reg := a.metrics.reg
	shardEntries := reg.GaugeVec("hangdoctor_fleet_shard_entries",
		"Root-cause entries owned by each shard.", "shard")
	var entries, hangs int64
	var health core.Health
	for i, st := range stats {
		shardEntries.With(strconv.Itoa(i)).Set(int64(st.Entries))
		entries += int64(st.Entries)
		hangs += int64(st.Hangs)
		health.Add(st.Health)
	}
	reg.Gauge("hangdoctor_fleet_entries", "Distinct root causes fleet-wide.").Set(entries)
	reg.Gauge("hangdoctor_fleet_hangs", "Diagnosed soft hangs fleet-wide.").Set(hangs)
	for _, hc := range []struct {
		name string
		v    int
	}{
		{"perf_open_failures", health.PerfOpenFailures},
		{"perf_open_retries", health.PerfOpenRetries},
		{"counters_lost", health.CountersLost},
		{"render_lost", health.RenderLost},
		{"stacks_dropped", health.StacksDropped},
		{"stacks_truncated", health.StacksTruncated},
		{"sampler_overruns", health.SamplerOverruns},
		{"verdicts_deferred", health.VerdictsDeferred},
		{"low_confidence", health.LowConfidence},
		{"quarantines", health.Quarantines},
		{"worker_stacks_lost", health.WorkerStacksLost},
		{"causal_fallbacks", health.CausalFallbacks},
	} {
		reg.Gauge("hangdoctor_fleet_health_"+hc.name,
			"Summed degraded-mode health counter across devices.").Set(int64(hc.v))
	}
}

// enqueue is the one way into the intake queue: it refuses uploads once
// the aggregator is closed, then either waits for queue space (block) or
// fails fast with ErrQueueFull, and counts the upload accepted or
// rejected. On success the aggregator owns u and everything it carries.
// A blocked send needs no crash arm: Crash closes crashCh only after it
// takes the write lock, which waits for this read lock, so the pipeline
// keeps draining the queue until the send lands.
func (a *Aggregator) enqueue(u *upload, block bool) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		a.metrics.rejected.Inc()
		return ErrClosed
	}
	if block {
		a.intake <- u
	} else {
		select {
		case a.intake <- u:
		default:
			a.metrics.rejected.Inc()
			return ErrQueueFull
		}
	}
	a.metrics.accepted.Inc()
	return nil
}

// SubmitWait enqueues one validated upload, waiting for queue space, and
// returns once it is queued. The report is owned by the aggregator from
// then on. Bulk importers (cmd/fleet) and benchmarks use it; devices go
// through the HTTP handlers, which fail fast so overload turns into
// backpressure.
func (a *Aggregator) SubmitWait(rep *core.Report) error {
	return a.enqueue(&upload{rep: rep}, true)
}

// SubmitWireWait is SubmitWait for a decoded binary upload — the
// zero-copy path: its already-keyed wire entries go straight to their
// shards, which merge them without building an intermediate report. The
// aggregator takes ownership of wr (decode with BinaryDecoder.Decode, not
// DecodeScratch).
func (a *Aggregator) SubmitWireWait(wr *core.WireReport) error {
	return a.enqueue(&upload{wire: wr}, true)
}

// WireAck is a reusable merge-completion acknowledgement for
// SubmitWireAcked. Unlike SubmitWireWait — which returns as soon as the
// upload is queued — an acked submission notifies the callback only after
// every routed fragment has merged (or, durably, passed the WAL barrier).
// That is the signal a zero-copy producer needs to recycle the buffer its
// wire entries alias: routing copies entry values into per-shard slices,
// but the shards read their Devices slices, and the upload's health
// section, from the producer's buffers until they are done merging.
//
// A WireAck tracks one in-flight submission at a time; reusing it for the
// next upload is only legal after the callback fires. The callback runs on
// an aggregator goroutine — it must be cheap and must not call back into
// the aggregator.
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

// uploadPool recycles upload envelopes on the acked wire path, where a
// steady-state producer submits millions of uploads and the envelope would
// otherwise be the last per-submission allocation.
var uploadPool = sync.Pool{New: func() any { return new(upload) }}

func putUpload(u *upload) {
	*u = upload{}
	uploadPool.Put(u)
}

// SubmitWireAcked enqueues one decoded binary upload on the zero-copy path
// and arranges for wa's callback to fire when every routed fragment has
// merged. It waits for queue space like SubmitWireWait (producers that
// want backpressure, not rejection). ErrClosed is returned synchronously,
// and then the callback never fires — the caller still owns the buffer.
func (a *Aggregator) SubmitWireAcked(wr *core.WireReport, wa *WireAck) error {
	u := uploadPool.Get().(*upload)
	u.wire, u.ack = wr, &wa.ack
	err := a.enqueue(u, true)
	if err != nil {
		putUpload(u)
	}
	return err
}

// Crashed returns a channel that closes when the aggregator is torn down
// abruptly via Crash. Producers blocked on resources owned by in-flight
// acks (pooled upload buffers whose callbacks will never fire) select on it
// to unwind instead of deadlocking.
func (a *Aggregator) Crashed() <-chan struct{} { return a.crashCh }

// SubmitDurable enqueues one upload and waits until it is durable per the
// WAL's sync policy and merged (without a WAL, merged). id is the upload's
// content hash (ReportUploadID), or zero to have the aggregator derive it
// from the canonical encoding it logs anyway; an upload whose id is
// already durable is acknowledged, once its first copy has merged, without
// being logged or merged again, so resending after a crash, a 5xx, or a
// lost response is idempotent.
// Queue-full still fails fast with ErrQueueFull.
func (a *Aggregator) SubmitDurable(rep *core.Report, id UploadID) error {
	return a.submitAcked(&upload{rep: rep, id: id})
}

// submitAcked is the device-facing submit behind SubmitDurable and both
// upload handlers: it fails fast when the queue is full, then waits for
// the upload's ack, so a nil return means merged and, with a WAL, durable
// first.
func (a *Aggregator) submitAcked(u *upload) error {
	// Once queued, u belongs to the dispatcher, which recycles it: wait on
	// the ack through this copy of the pointer.
	ack := newUploadAck()
	u.ack = ack
	if err := a.enqueue(u, false); err != nil {
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

// runDispatcher splits queued uploads into per-shard fragments. Several
// dispatchers run concurrently — splitting hashes every entry, and a single
// splitter would serialize the whole write path (Amdahl) — which is safe
// because fragment routing is order-independent under a commutative merge.
func (a *Aggregator) runDispatcher() {
	defer a.dispatchWG.Done()
	for u := range a.intake {
		if !a.dispatchOne(u) {
			return
		}
		// Everything downstream needs was copied out of the envelope; it is
		// free to recycle.
		putUpload(u)
	}
}

// dispatchOne splits one upload into per-shard fragments. A memory-only
// aggregator routes them at once. A durable one first encodes the upload's
// log record — its one canonical binary encoding, which also yields a zero
// ID — and hands record and fragments to the committer. It returns false
// if a crash unwound the dispatcher.
func (a *Aggregator) dispatchOne(u *upload) bool {
	frags := a.split(u)
	if a.commit == nil {
		return a.route(frags, u.ack)
	}
	rep := u.rep
	if rep == nil {
		rep = u.wire.Report() // the log holds reports
	}
	frame, id := uploadRecord(rep, u.id)
	select {
	case a.commit <- logged{frame: frame, id: id, frags: frags, ack: u.ack}:
		return true
	case <-a.crashCh:
		return false
	}
}

// split cuts an upload into one message per shard, in the upload's own
// form: a report into fragment reports (Report.Split), a decoded binary
// upload into per-shard copies of its already-keyed entries, routed by
// core.ShardIndexKey, with its health section riding shard 0. A shard's
// message is empty when it gets nothing.
func (a *Aggregator) split(u *upload) []shardMsg {
	msgs := make([]shardMsg, a.cfg.Shards)
	if u.wire == nil {
		for i, frag := range u.rep.Split(a.cfg.Shards) {
			msgs[i].frag = frag
		}
		return msgs
	}
	for i := range u.wire.Entries {
		s := core.ShardIndexKey(u.wire.Entries[i].Key, a.cfg.Shards)
		msgs[s].wire = append(msgs[s].wire, u.wire.Entries[i])
	}
	if !u.wire.Health.Zero() {
		msgs[0].health = &u.wire.Health
	}
	return msgs
}

// route sends an upload's non-empty fragments to their shards; the shard
// that merges the last one completes the ack. It returns false if a crash
// unwound it.
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
// On a clean drain it writes one final snapshot; a crash abandons the log
// as it stands.
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
			// Clean drain: the next boot replays a snapshot instead of the
			// whole tail.
			if w.records > 0 || w.dirty {
				if err := a.compact(w); err != nil {
					fmt.Printf("fleet: final wal compaction failed (tail remains replayable): %v\n", err)
				}
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
			if err := a.compact(w); err != nil {
				// The old log is intact; keep appending to it and let the
				// next batch retry. appendErrors already counted barriers.
				fmt.Printf("fleet: wal compaction failed (will retry): %v\n", err)
			}
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

// compact snapshots the state the log's records built and compacts the log
// into it.
func (a *Aggregator) compact(w *nodeWAL) error {
	reps, _, ok := a.gather(nil)
	if !ok {
		return nil // crashed: recovery replays the log as it stands
	}
	return w.compact(core.FoldReportsShared(reps...))
}

// runShard is a single-writer merge loop: only this goroutine ever touches
// its core.Report, which starts as the shard's share of the recovered
// state. Fragments are drained in batches of up to BatchSize per merge
// call, and control messages (stats/snapshot) are answered between
// batches, so they observe merge-complete states only.
func (a *Aggregator) runShard(i int, rep *core.Report) {
	defer a.shardWG.Done()
	ch := a.shards[i]
	batch := make([]shardMsg, 0, a.cfg.BatchSize)
	ctrl := make([]shardMsg, 0, 4)
	// cache is the shard's versioned snapshot state: merges mark the keys
	// they touch and bump the version once per batch; reads reuse the
	// cached immutable snapshot whenever the version is unchanged, and a
	// stale one is rebuilt as the previous snapshot plus the marked keys,
	// re-cloned and stamped with their versions.
	cache := core.NewSnapshotCache()
	serve := func(m shardMsg) {
		switch {
		case m.stats != nil:
			m.stats <- ShardStats{Entries: rep.Len(), Hangs: rep.TotalHangs(), Health: rep.Health}
		case m.delta:
			d, v := cache.DeltaSince(rep, m.since)
			m.snap <- shardSnap{rep: d, version: v}
		case m.snap != nil:
			if cache.Cached() {
				a.metrics.snapshotReuses.Inc()
			}
			m.snap <- shardSnap{rep: cache.Snapshot(rep), version: cache.Version()}
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
		batch[i].mark(sc)
		batch[i].merge(rep)
	}
	sc.Bump()
	a.metrics.noteMerge(len(batch), time.Since(start))
	for _, m := range batch {
		m.ack.complete()
	}
}

// ShardStats queries every shard; after Close it reads the final reports
// directly.
func (a *Aggregator) ShardStats() []ShardStats {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]ShardStats, a.cfg.Shards)
	if a.crashed {
		return out
	}
	if a.finalized {
		// Shard channels are closed; wait for the drain to finish (outside
		// the lock) and read the final reports directly.
		a.mu.RUnlock()
		a.shardWG.Wait()
		a.mu.RLock()
		for i, rep := range a.finals {
			if rep == nil {
				continue
			}
			out[i] = ShardStats{Entries: rep.Len(), Hangs: rep.TotalHangs(), Health: rep.Health}
		}
		return out
	}
	replies := make([]chan ShardStats, a.cfg.Shards)
	for i, ch := range a.shards {
		replies[i] = make(chan ShardStats, 1)
		select {
		case ch <- shardMsg{stats: replies[i]}:
		case <-a.crashCh:
			return out
		}
	}
	for i := range replies {
		select {
		case out[i] = <-replies[i]:
		case <-a.crashCh:
			return out
		}
	}
	return out
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
	if a.crashed {
		a.metrics.foldErrors.Inc()
		return core.NewReport(), VersionVector{}
	}
	if a.finalized {
		a.mu.RUnlock()
		a.shardWG.Wait()
		a.mu.RLock()
		// Post-drain state is frozen: fold once, serve the memo forever.
		a.foldMu.Lock()
		defer a.foldMu.Unlock()
		if a.foldFinal == nil {
			a.foldFinal = core.FoldReportsShared(a.finals...)
		} else {
			a.metrics.foldCacheHits.Inc()
		}
		return a.foldFinal, VersionVector{Epoch: a.epoch}
	}
	snaps, vers, ok := a.gather(nil)
	if !ok {
		a.metrics.foldErrors.Inc()
		return core.NewReport(), VersionVector{}
	}
	a.foldMu.Lock()
	defer a.foldMu.Unlock()
	rep, hit := a.foldCache.Update(snaps, vers)
	if hit {
		a.metrics.foldCacheHits.Inc()
	}
	return rep, VersionVector{Epoch: a.epoch, Shards: vers}
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
// everything already queued is split and merged before Close returns, so a
// graceful shutdown loses nothing it acknowledged. With a WAL, the
// committer drains and writes one final compacted snapshot before the
// shards stop, so a clean restart replays a snapshot and an empty tail.
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
	a.closed = true
	close(a.intake)
	a.mu.Unlock()

	a.dispatchWG.Wait()
	if a.commit != nil {
		// The dispatchers were its only senders. The committer's final
		// snapshot gathers from the shards, so they stay open until it is
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
	close(a.intake)
	a.mu.Unlock()
	a.wait()
}

// wait blocks until every dispatcher, the committer and every shard exited.
func (a *Aggregator) wait() { a.dispatchWG.Wait(); a.commitWG.Wait(); a.shardWG.Wait() }

// String describes the aggregator's shape for logs.
func (a *Aggregator) String() string {
	wal := "off"
	if a.cfg.WAL != nil {
		wal = fmt.Sprintf("dir=%s sync=%s compact-every=%d", a.cfg.WAL.Dir, a.cfg.WAL.Sync, a.cfg.WAL.CompactEvery)
	}
	return fmt.Sprintf("fleet.Aggregator{shards=%d queue=%d batch=%d dispatchers=%d wal=%s}",
		a.cfg.Shards, a.cfg.QueueDepth, a.cfg.BatchSize, a.cfg.Dispatchers, wal)
}
