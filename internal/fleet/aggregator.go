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
// With a WALConfig the aggregator is also durable: each shard appends its
// fragments to a private append-only log (see wal.go), acknowledgements
// wait for the durability barrier, startup replays snapshot-then-tail
// before intake opens, and a crash loses nothing it acknowledged.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
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
	// idle (default 16). With a WAL it is also the group-commit window.
	BatchSize int
	// Dispatchers is the number of goroutines splitting queued uploads into
	// per-shard fragments; splitting hashes every entry, so it must scale
	// alongside the shards or it becomes the serial bottleneck (default:
	// max(Shards, GOMAXPROCS/2)).
	Dispatchers int
	// WAL, when non-nil, enables the durability layer: per-shard
	// append-only logs with snapshot compaction and replay-on-open.
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
// path, the decoded wire view), its content-hash identity (zero until a
// dispatcher computes it, when a WAL needs one), and the optional
// durability ack. Exactly one of rep/wire is set.
type upload struct {
	rep  *core.Report
	wire *core.WireReport
	id   UploadID
	ack  *uploadAck
}

// uploadAck gathers per-shard outcomes for one submission. Completion is
// delivered one of two ways: blocking waiters (SubmitDurable) wait on done,
// which closes once every routed fragment has either become durable, been
// deduplicated, or failed; callback acks (SubmitWireAcked) carry fn instead,
// invoked once with the first failure (or nil) — fn-based acks have no done
// channel and are reusable across submissions. err holds the first failure.
type uploadAck struct {
	remaining atomic.Int32
	mu        sync.Mutex
	err       error
	done      chan struct{}
	fn        func(error)
}

func newUploadAck() *uploadAck { return &uploadAck{done: make(chan struct{})} }

// finish delivers the gathered outcome: the callback for fn-based acks,
// closing done for channel-based ones. Called exactly once per submission —
// by the last complete(), or directly by the dispatcher when an upload
// routed zero fragments.
func (a *uploadAck) finish() {
	if a.fn != nil {
		a.fn(a.firstErr())
		return
	}
	close(a.done)
}

// complete records one fragment outcome; the last one releases the waiter.
func (a *uploadAck) complete(err error) {
	if a == nil {
		return
	}
	if err != nil {
		a.mu.Lock()
		if a.err == nil {
			a.err = err
		}
		a.mu.Unlock()
	}
	if a.remaining.Add(-1) == 0 {
		a.finish()
	}
}

func (a *uploadAck) firstErr() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// shardSnap is a shard's reply to a snapshot or delta request: an
// immutable report (the shard's cached copy-on-write snapshot, or the
// changed-entries-only delta) and the shard's state version, read in the
// same shard-goroutine turn so the pair is always consistent.
type shardSnap struct {
	rep     *core.Report
	version uint64
}

// shardMsg is the only thing that crosses into a shard goroutine: a
// fragment to merge (with its upload identity and ack), a slice of decoded
// wire entries from the binary fast path (optionally carrying the upload's
// health section, which rides shard 0), or a control request (stats, a
// versioned snapshot, or with delta set the changes since version since).
type shardMsg struct {
	frag   *core.Report
	wire   []core.WireEntry
	health *core.Health
	id     UploadID
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

// Aggregator is the sharded fleet-report builder.
type Aggregator struct {
	cfg     Config
	intake  chan *upload
	shards  []chan shardMsg
	metrics *Metrics
	walM    *walMetrics // nil when the WAL is disabled

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
	closed    bool // no further Submits
	crashed   bool // torn down abruptly; shard state abandoned
	finalized bool // shards exited; finals hold their reports
	finals    []*core.Report

	dispatchWG sync.WaitGroup
	shardWG    sync.WaitGroup
}

// Open starts the shard and dispatcher goroutines and returns an
// aggregator ready for Submit. With cfg.WAL set, every shard first
// replays its snapshot and log tail — Open does not return (and intake
// does not open) until recovery is complete, and recovery failures are
// returned here. Call Close to drain and stop the aggregator.
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
	if cfg.WAL != nil {
		if cfg.WAL.Dir == "" {
			return nil, errors.New("fleet: WALConfig.Dir must be set")
		}
		a.walM = a.metrics.initWAL()
	}
	a.metrics.reg.GaugeFunc("hangdoctor_fleet_queue_depth",
		"Current intake backlog.",
		func() int64 { return int64(len(a.intake)) })
	ready := make(chan error, cfg.Shards)
	for i := range a.shards {
		a.shards[i] = make(chan shardMsg, 2*cfg.BatchSize)
		a.shardWG.Add(1)
		go a.runShard(i, ready)
	}
	var firstErr error
	for i := 0; i < cfg.Shards; i++ {
		if err := <-ready; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		// Recovery failed somewhere: unwind the healthy shards and report.
		a.mu.Lock()
		a.closed, a.finalized = true, true
		close(a.intake)
		for _, ch := range a.shards {
			close(ch)
		}
		a.mu.Unlock()
		a.shardWG.Wait()
		return nil, firstErr
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

// Draining reports whether shutdown (or a crash) has begun: Submits are
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

// Submit enqueues one validated upload without blocking. It returns
// ErrQueueFull when the bounded queue is at capacity and ErrClosed after
// Close; on success the report is owned by the aggregator (callers must not
// mutate it afterwards). With a WAL the fragments are logged durably in the
// background but Submit does not wait for the barrier — use SubmitDurable
// when the acknowledgement must imply durability.
func (a *Aggregator) Submit(rep *core.Report) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		a.metrics.rejected.Inc()
		return ErrClosed
	}
	select {
	case a.intake <- &upload{rep: rep}:
		a.metrics.accepted.Inc()
		return nil
	default:
		a.metrics.rejected.Inc()
		return ErrQueueFull
	}
}

// SubmitWait is Submit without the non-blocking policy: it waits for queue
// space instead of rejecting. Bulk importers (cmd/fleet) and benchmarks use
// it; the HTTP path uses Submit so overload turns into backpressure.
func (a *Aggregator) SubmitWait(rep *core.Report) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		a.metrics.rejected.Inc()
		return ErrClosed
	}
	a.intake <- &upload{rep: rep}
	a.metrics.accepted.Inc()
	return nil
}

// SubmitWire enqueues one decoded binary upload without blocking — the
// zero-copy ingest path: the dispatcher routes the already-keyed wire
// entries straight to their shards, which merge them without building an
// intermediate report. The aggregator takes ownership of wr (decode with
// BinaryDecoder.Decode, not DecodeScratch). On a durable aggregator the
// upload is materialized to a report at dispatch so it can be logged; use
// SubmitDurable when the acknowledgement must imply durability.
func (a *Aggregator) SubmitWire(wr *core.WireReport) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		a.metrics.rejected.Inc()
		return ErrClosed
	}
	select {
	case a.intake <- &upload{wire: wr}:
		a.metrics.accepted.Inc()
		return nil
	default:
		a.metrics.rejected.Inc()
		return ErrQueueFull
	}
}

// SubmitWireWait is SubmitWire that waits for queue space instead of
// rejecting — the bulk-import and benchmark counterpart of SubmitWait.
func (a *Aggregator) SubmitWireWait(wr *core.WireReport) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		a.metrics.rejected.Inc()
		return ErrClosed
	}
	a.intake <- &upload{wire: wr}
	a.metrics.accepted.Inc()
	return nil
}

// WireAck is a reusable merge-completion acknowledgement for
// SubmitWireAcked. Unlike SubmitWireWait — which returns as soon as the
// upload is queued — an acked submission notifies the callback only after
// every routed fragment has merged (or, durably, passed the WAL barrier).
// That is the signal a zero-copy producer needs to recycle the buffer its
// wire entries alias: WireReport.Split copies entry values into per-shard
// slices, but the Devices strings still point into the producer's encode
// buffer until the shards are done with them.
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
// merged. It blocks for queue space like SubmitWireWait (producers that
// want backpressure, not rejection); ErrClosed and ErrCrashed are returned
// synchronously, and then the callback never fires — the caller still owns
// the buffer.
func (a *Aggregator) SubmitWireAcked(wr *core.WireReport, wa *WireAck) error {
	a.mu.RLock()
	if a.closed {
		a.mu.RUnlock()
		a.metrics.rejected.Inc()
		return ErrClosed
	}
	wa.ack.mu.Lock()
	wa.ack.err = nil
	wa.ack.mu.Unlock()
	wa.ack.remaining.Store(0)
	u := uploadPool.Get().(*upload)
	u.wire, u.ack = wr, &wa.ack
	select {
	case a.intake <- u:
		a.metrics.accepted.Inc()
		a.mu.RUnlock()
		return nil
	case <-a.crashCh:
		a.mu.RUnlock()
		putUpload(u)
		a.metrics.rejected.Inc()
		return ErrCrashed
	}
}

// Crashed returns a channel that closes when the aggregator is torn down
// abruptly via Crash. Producers blocked on resources owned by in-flight
// acks (pooled upload buffers whose callbacks will never fire) select on it
// to unwind instead of deadlocking.
func (a *Aggregator) Crashed() <-chan struct{} { return a.crashCh }

// SubmitDurable enqueues one upload and waits until every routed fragment
// is durable per the WAL's sync policy (or, without a WAL, merged). id is
// the upload's content hash (ComputeUploadID over the raw document, or
// ReportUploadID); fragments of an id the shards have already made durable
// are skipped, so resending after a crash, a 5xx, or a lost response is
// idempotent. Queue-full still fails fast with ErrQueueFull.
func (a *Aggregator) SubmitDurable(rep *core.Report, id UploadID) error {
	ack := newUploadAck()
	a.mu.RLock()
	if a.closed {
		a.mu.RUnlock()
		a.metrics.rejected.Inc()
		return ErrClosed
	}
	u := &upload{rep: rep, id: id, ack: ack}
	select {
	case a.intake <- u:
		a.metrics.accepted.Inc()
	default:
		a.mu.RUnlock()
		a.metrics.rejected.Inc()
		return ErrQueueFull
	}
	a.mu.RUnlock()
	select {
	case <-ack.done:
		return ack.firstErr()
	case <-a.crashCh:
		// The ack may still land; prefer it if it already has.
		select {
		case <-ack.done:
			return ack.firstErr()
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
	durable := a.cfg.WAL != nil
	for u := range a.intake {
		if !a.dispatchOne(u, durable) {
			return
		}
		// Everything the shards need was copied into shardMsgs; the
		// envelope itself is free to recycle.
		putUpload(u)
	}
}

// dispatchOne splits one upload into per-shard fragments and routes them.
// It returns false if a crash unwound the dispatcher mid-route.
func (a *Aggregator) dispatchOne(u *upload, durable bool) bool {
	if u.wire != nil {
		if durable {
			// The WAL logs report fragments; materialize once so the
			// durable path below stays uniform (the canonical identity
			// is derived right after, like any other submit).
			u.rep = u.wire.Report()
			u.wire = nil
		} else {
			return a.dispatchWire(u)
		}
	}
	if durable && u.id == (UploadID{}) {
		// Non-durable submit on a durable aggregator: the log record
		// still needs an identity, derived here off the hot Submit path.
		id, err := ReportUploadID(u.rep)
		if err == nil {
			u.id = id
		}
	}
	frags := u.rep.Split(a.cfg.Shards)
	if u.ack != nil {
		n := 0
		for _, frag := range frags {
			if frag != nil {
				n++
			}
		}
		if n == 0 {
			u.ack.finish()
			return true
		}
		// The count must be set before the first fragment can complete.
		u.ack.remaining.Store(int32(n))
	}
	for i, frag := range frags {
		if frag == nil {
			continue
		}
		select {
		case a.shards[i] <- shardMsg{frag: frag, id: u.id, ack: u.ack}:
		case <-a.crashCh:
			return false
		}
	}
	return true
}

// dispatchWire routes a decoded binary upload's entries to their shards by
// precomputed entry key — no Split, no fragment reports, no re-hashing of
// strings the decoder already keyed. It returns false if a crash unwound
// the dispatcher mid-route.
func (a *Aggregator) dispatchWire(u *upload) bool {
	frags, health := u.wire.Split(a.cfg.Shards)
	var h *core.Health
	if !health.Zero() {
		h = &health
	}
	if u.ack != nil {
		n := 0
		for i, entries := range frags {
			if entries != nil || (i == 0 && h != nil) {
				n++
			}
		}
		if n == 0 {
			u.ack.finish()
			return true
		}
		// The count must be set before the first routed fragment completes.
		u.ack.remaining.Store(int32(n))
	}
	for i, entries := range frags {
		var eh *core.Health
		if i == 0 {
			eh = h
		}
		if entries == nil && eh == nil {
			continue
		}
		select {
		case a.shards[i] <- shardMsg{wire: entries, health: eh, id: u.id, ack: u.ack}:
		case <-a.crashCh:
			return false
		}
	}
	return true
}

// pendingFrag is one fragment of the in-flight shard batch, kept with its
// identity and ack until the durability barrier decides its fate. Either
// frag or wire (with optional health) is set, mirroring shardMsg.
type pendingFrag struct {
	frag   *core.Report
	wire   []core.WireEntry
	health *core.Health
	id     UploadID
	ack    *uploadAck
}

// merge folds the fragment into rep, whichever form it carries.
func (pf *pendingFrag) merge(rep *core.Report) {
	if pf.frag != nil {
		rep.Merge(pf.frag)
		return
	}
	if pf.health != nil {
		rep.Health.Add(*pf.health)
	}
	rep.MergeWireEntries(pf.wire)
}

// mark records the fragment's entry keys in the shard's snapshot cache so
// the next snapshot re-clones only what this merge dirtied. Called exactly
// when the fragment actually merges into the shard report (never for the
// WAL-materialization path, which builds a throwaway report).
func (pf *pendingFrag) mark(sc *core.SnapshotCache) {
	if pf.frag != nil {
		sc.MarkReport(pf.frag)
		return
	}
	sc.MarkWireEntries(pf.wire)
}

// report materializes the fragment as a standalone report (the durable
// path needs one to log).
func (pf *pendingFrag) report() *core.Report {
	if pf.frag == nil {
		frag := core.NewReport()
		pf.merge(frag)
		pf.frag = frag
	}
	return pf.frag
}

// runShard is a single-writer merge loop: only this goroutine ever touches
// its core.Report or its WAL. With a WAL it first recovers its state
// (snapshot, then log tail — truncating a torn final record), reporting
// readiness on ready; fragments are then appended to the log and only
// merged once durable per the sync policy, so the in-memory report (and
// therefore every snapshot compaction) never gets ahead of the disk.
// Fragments are drained in batches of up to BatchSize per merge call — one
// group-commit barrier per batch — and control messages (stats/snapshot)
// are answered between batches, so they observe merge-complete states only.
func (a *Aggregator) runShard(i int, ready chan<- error) {
	defer a.shardWG.Done()
	var w *shardWAL
	rep := core.NewReport()
	if a.cfg.WAL != nil {
		var err error
		w, rep, _, err = openShardWAL(a.cfg.WAL, i, a.cfg.Shards, a.walM)
		ready <- err
		if err != nil {
			// Open unwinds everything; just drain our channel until then.
			for range a.shards[i] {
			}
			return
		}
		defer w.close()
	} else {
		ready <- nil
	}

	ch := a.shards[i]
	batch := make([]pendingFrag, 0, a.cfg.BatchSize)
	ctrl := make([]shardMsg, 0, 4)
	// cache is the shard's versioned snapshot state: merges mark the keys
	// they touch and bump the version once per batch; reads reuse the
	// cached immutable snapshot whenever the version is unchanged, and a
	// stale one re-clones only the dirtied entries (copy-on-write).
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
		}
	}
	for {
		var msg shardMsg
		var ok bool
		select {
		case <-a.crashCh:
			// Abandoned abruptly: no final compaction, no acks. Whatever
			// the log holds is what recovery will see.
			return
		case msg, ok = <-ch:
			if !ok {
				// Clean drain: write one final compacted snapshot so the
				// next boot replays a snapshot instead of the whole tail.
				if w != nil && (w.records > 0 || w.dirty) {
					if err := w.compact(cache.Snapshot(rep)); err != nil {
						fmt.Printf("fleet: shard %d final compaction failed (tail remains replayable): %v\n", i, err)
					}
				}
				a.finals[i] = rep
				return
			}
		}
		if !msg.payload() {
			serve(msg)
			continue
		}
		batch = append(batch[:0], pendingFrag{frag: msg.frag, wire: msg.wire, health: msg.health, id: msg.id, ack: msg.ack})
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
				batch = append(batch, pendingFrag{frag: m2.frag, wire: m2.wire, health: m2.health, id: m2.id, ack: m2.ack})
			default:
				break drain
			}
		}
		a.processBatch(w, rep, cache, batch)
		for _, m2 := range ctrl {
			serve(m2)
		}
		if w != nil && w.records >= a.cfg.WAL.CompactEvery {
			// Compaction serializes the shard's state; consuming the cached
			// copy-on-write snapshot (instead of the live report) means a
			// compaction right after a fold costs no extra cloning, and the
			// snapshot it persists is exactly what readers were served.
			if err := w.compact(cache.Snapshot(rep)); err != nil {
				// The old log is intact; keep appending to it and let the
				// next batch retry. appendErrors already counted barriers.
				fmt.Printf("fleet: shard %d compaction failed (will retry): %v\n", i, err)
			}
		}
	}
}

// processBatch makes one batch of fragments durable and merges the
// survivors. Without a WAL every fragment survives. With one:
//
//  1. fragments whose upload ID is already durable are skipped (acked as
//     success — the previous append is the durability);
//  2. survivors are appended to the log; an append failure nacks just
//     that fragment (the tail is repaired before the next append);
//  3. one barrier covers the batch (group commit; SyncAlways moves the
//     barrier inside the loop). A failed barrier rolls the log back to
//     the last durable watermark and nacks the whole batch;
//  4. only fragments that made it through the barrier are merged into
//     the in-memory report and remembered for dedup — the report never
//     contains state the log could lose.
func (a *Aggregator) processBatch(w *shardWAL, rep *core.Report, sc *core.SnapshotCache, batch []pendingFrag) {
	if w == nil {
		start := time.Now()
		for i := range batch {
			batch[i].mark(sc)
			batch[i].merge(rep)
		}
		sc.Bump()
		a.metrics.noteMerge(len(batch), time.Since(start))
		for _, pf := range batch {
			pf.ack.complete(nil)
		}
		return
	}

	durable := make([]pendingFrag, 0, len(batch))
	// Batch-local duplicate check: two sends of the same document racing
	// into one batch must dedup exactly like one arriving after the
	// barrier. Batches are small (BatchSize), so a linear scan is fine.
	inBatch := func(id UploadID) bool {
		for _, pf := range durable {
			if pf.id == id {
				return true
			}
		}
		return false
	}
	for _, pf := range batch {
		if w.dedup.has(pf.id) || inBatch(pf.id) {
			a.walM.deduped.Inc()
			pf.ack.complete(nil)
			continue
		}
		payload, err := encodeFragment(pf.id, pf.report())
		if err == nil {
			err = w.append(payload)
		}
		if err == nil && a.cfg.WAL.Sync == SyncAlways {
			err = w.barrier()
		}
		if err != nil {
			pf.ack.complete(err)
			continue
		}
		durable = append(durable, pf)
	}
	if len(durable) > 0 && a.cfg.WAL.Sync != SyncAlways {
		if err := w.barrier(); err != nil {
			// Nothing in this batch is durable: nack everything appended
			// (the log was rolled back to the last durable watermark).
			for _, pf := range durable {
				pf.ack.complete(err)
			}
			return
		}
	}
	if len(durable) == 0 {
		return
	}
	// Only now — past the barrier — does the batch enter the in-memory
	// report and the dedup window.
	start := time.Now()
	for i := range durable {
		durable[i].mark(sc)
		durable[i].merge(rep)
		w.dedup.add(durable[i].id)
	}
	sc.Bump()
	a.metrics.noteMerge(len(durable), time.Since(start))
	for _, pf := range durable {
		pf.ack.complete(nil)
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
// versioned copy-on-write snapshot (free when the shard hasn't changed),
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
// copy-on-write snapshot when since is nil, else its changes since
// version since[i]. Callers must hold a.mu.RLock with the shards live; ok
// is false if a crash unwound the gather.
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
// graceful shutdown loses nothing it acknowledged. With a WAL, each shard
// writes one final compacted snapshot on its way out, so a clean restart
// replays a snapshot and an empty tail. Close is idempotent.
func (a *Aggregator) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		// Whether the first teardown was a Close or a Crash, both waitgroups
		// terminate; wait so the WAL directory is quiescent on return.
		a.dispatchWG.Wait()
		a.shardWG.Wait()
		return
	}
	a.closed = true
	close(a.intake)
	a.mu.Unlock()

	a.dispatchWG.Wait()
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
// and the chaos harness exercise. Whatever the shard logs physically hold
// is what a subsequent Open of the same WAL directory recovers. In-flight
// SubmitDurable calls return ErrCrashed (their uploads are unacknowledged
// and safe to resend). Crash is idempotent; Crash after Close is a no-op.
func (a *Aggregator) Crash() {
	a.mu.Lock()
	if a.closed {
		crashed := a.crashed
		a.mu.Unlock()
		if crashed {
			// A concurrent Crash won the race; wait out its teardown so no
			// shard goroutine is still touching the WAL directory when this
			// call returns (callers immediately reopen that directory).
			a.dispatchWG.Wait()
			a.shardWG.Wait()
		}
		return
	}
	a.closed, a.crashed, a.finalized = true, true, true
	close(a.crashCh)
	close(a.intake)
	a.mu.Unlock()
	a.dispatchWG.Wait()
	a.shardWG.Wait()
}

// String describes the aggregator's shape for logs.
func (a *Aggregator) String() string {
	wal := "off"
	if a.cfg.WAL != nil {
		wal = fmt.Sprintf("dir=%s sync=%s compact-every=%d", a.cfg.WAL.Dir, a.cfg.WAL.Sync, a.cfg.WAL.CompactEvery)
	}
	return fmt.Sprintf("fleet.Aggregator{shards=%d queue=%d batch=%d dispatchers=%d wal=%s}",
		a.cfg.Shards, a.cfg.QueueDepth, a.cfg.BatchSize, a.cfg.Dispatchers, wal)
}
