// Package fleet is the server side of the paper's §3.2 field-study loop at
// production scale: many devices upload Hang Bug Reports ((*core.Report)
// documents) and the service aggregates them into one fleet-wide view.
//
// The write path is sharded: an upload takes one of a bounded number of
// admission slots (backpressure, not unbounded buffering, when ingest
// outruns merging), is routed by the trie hash of each entry's identity
// into per-shard runs of indices into its wire entries
// (core.WireReport.Runs), and each run is merged where it lies into its
// shard's private core.Report, under that shard's mutex, on the
// submitter's goroutine. Reads fold shard snapshots
// on demand. Because core.Report.Merge is commutative and associative, the
// folded view is byte-identical to a serial merge of the same uploads
// regardless of shard count, submitter interleaving, or arrival order —
// the property the determinism tests pin down.
//
// With a WALConfig the aggregator is also durable: a committer goroutine
// appends each upload, whole, to one node log (see wal.go) and merges it
// only after the durability barrier, so the shards stay purely in memory;
// a submit returns once its upload has merged, startup replays the log (a
// compacted base, then the uploads behind it) before intake opens, and a
// crash loses nothing it acknowledged.
package fleet

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
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
	// ErrRecordTooLarge means a durable node refused an upload whose log
	// record would exceed the WAL's frame bound; the same upload can never
	// be logged, so resending it is futile (mapped to 413).
	ErrRecordTooLarge = errors.New("fleet: wal record too large")
)

// Config parameterizes an Aggregator. The zero value is completed by
// defaults suitable for tests and small deployments.
type Config struct {
	// Shards is the number of merge shards, each a report behind its own
	// mutex; entries hash onto them by identity (default 4).
	Shards int
	// QueueDepth bounds the uploads admitted but not yet merged or, on a
	// durable node, not yet handed to the committer; beyond it a submit
	// fails fast with ErrQueueFull instead of buffering without limit
	// (default 256).
	QueueDepth int
	// BatchSize is the committer's group-commit window: the most uploads
	// one barrier on the node log covers (default 16). A memory-only node
	// has no committer and ignores it.
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

// shard is one disjoint part of a node's state: a report and the cache
// that versions it, read and written only under mu.
type shard struct {
	mu    sync.Mutex
	rep   *core.Report
	cache *core.SnapshotCache
}

// logged is one upload on its way through the committer: its framed log
// record, its identity, its wire view, which the committer merges after
// the barrier, and the channel that carries its outcome (buffered, so the
// committer never waits on a submitter).
type logged struct {
	frame []byte
	id    UploadID
	up    *core.WireReport
	done  chan error
}

// Aggregator is the sharded fleet-report builder.
type Aggregator struct {
	cfg     Config
	slots   chan struct{} // one per upload admitted but not yet merged or handed to the committer
	shards  []shard
	metrics *Metrics
	walM    *walMetrics // nil when the WAL is disabled
	// commit feeds the committer, which alone merges on a durable
	// aggregator; nil when the WAL is disabled.
	commit chan logged

	// epoch identifies this aggregator instance in version vectors; shard
	// versions only compare within one epoch.
	epoch uint64

	// foldMu guards the incremental fold cache, keyed by the shard version
	// vector. The cached reports are immutable — Fold hands them to many
	// readers.
	foldMu    sync.Mutex
	foldCache core.FoldCache

	// crashCh closes on Crash(): the committer, the submitters waiting for
	// it and every later read unwind through it.
	crashCh chan struct{}

	mu     sync.RWMutex
	closed bool // no further uploads

	commitWG sync.WaitGroup
}

// Open returns an aggregator ready for uploads. With cfg.WAL set, it first
// replays the node's log into the shards, merging each record as the
// committer merges a live upload, then starts the committer — Open does
// not return (and intake does not open) until recovery is complete, and
// recovery failures are returned here. Call Close to drain and stop the
// aggregator.
func Open(cfg Config) (*Aggregator, error) {
	cfg = cfg.withDefaults()
	a := &Aggregator{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.QueueDepth),
		shards:  make([]shard, cfg.Shards),
		metrics: newMetrics(cfg.QueueDepth),
		epoch:   newEpoch(),
		crashCh: make(chan struct{}),
	}
	for i := range a.shards {
		rep := core.NewReport()
		a.shards[i].rep, a.shards[i].cache = rep, core.NewSnapshotCache(rep)
	}
	var w *nodeWAL
	if cfg.WAL != nil {
		if cfg.WAL.Dir == "" {
			return nil, errors.New("fleet: WALConfig.Dir must be set")
		}
		a.walM = a.metrics.initWAL()
		var err error
		if w, err = openNodeWAL(cfg.WAL, a.walM, a.merge); err != nil {
			return nil, err
		}
		// Two batches: the one the committer works on and the next.
		a.commit = make(chan logged, 2*cfg.BatchSize)
	}
	a.metrics.reg.GaugeFunc("hangdoctor_fleet_queue_depth",
		"Uploads admitted but not yet handed off.",
		func() int64 { return int64(len(a.slots)) })
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

// QueueDepth returns the number of uploads admitted but not yet merged or
// handed to the committer.
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
	reps, _, ok := a.reports()
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

// SubmitDurable submits one report upload and returns once it has merged:
// on a durable node, after the WAL made it durable per its sync policy. id
// is the upload's content hash (ReportUploadID), or zero to have the node
// derive it from the canonical encoding it logs anyway; an upload whose id
// is already durable is acknowledged, its first copy having merged,
// without being logged or merged again, so resending after a crash, a 5xx,
// or a lost response is idempotent. With every admission slot taken it
// fails fast with ErrQueueFull. The node keeps no reference to rep.
func (a *Aggregator) SubmitDurable(rep *core.Report, id UploadID) error {
	return a.submit(rep, nil, id)
}

// SubmitWire is SubmitDurable for a decoded binary upload: the shards
// merge wr's entries where they lie, with no copy into a report, and its
// content hash is derived on a durable node. The node routes wr in place
// (core.WireReport.Runs), so one view is never submitted twice at once.
// When it returns, whatever the outcome, the node no longer touches wr, so
// the caller may decode the next upload into it.
func (a *Aggregator) SubmitWire(wr *core.WireReport) error {
	return a.submit(nil, wr, UploadID{})
}

// submit is the one way in for uploads. Exactly one of rep and wr is set;
// id is the upload's content hash or zero. It hands the upload off and,
// on a durable node, waits for the committer's answer: merged (nil), a
// durability error, or a crash. On ErrCrashed it waits for the committer
// to exit first, so it never returns while the committer may still read
// the upload.
func (a *Aggregator) submit(rep *core.Report, wr *core.WireReport, id UploadID) error {
	done, err := a.handOff(rep, wr, id)
	if done == nil {
		return err
	}
	select {
	case err = <-done:
		return err
	case <-a.crashCh:
		a.commitWG.Wait()
		select {
		case err = <-done: // answered before the committer unwound
			return err
		default:
			return ErrCrashed
		}
	}
}

// handOff runs on the submitter's goroutine under the read lock, so Close
// and Crash, which take the write lock, never find an upload half handed
// off. It refuses uploads after Close, takes an admission slot or fails
// fast with ErrQueueFull, counts the upload and makes its wire view (a
// report upload's is made here, once). A memory-only node merges the view
// right here and returns a nil channel; a durable one encodes its log
// record, hands record and view to the committer and returns the channel
// the outcome will arrive on. The hand-off needs no crash arm: crashCh
// closes only under the write lock, and until then the committer drains.
func (a *Aggregator) handOff(rep *core.Report, wr *core.WireReport, id UploadID) (chan error, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		a.metrics.rejected.Inc()
		return nil, ErrClosed
	}
	select {
	case a.slots <- struct{}{}:
	default:
		a.metrics.rejected.Inc()
		return nil, ErrQueueFull
	}
	defer func() { <-a.slots }()
	a.metrics.accepted.Inc()
	if wr == nil {
		wr = rep.Wire()
	}
	if a.commit == nil {
		a.merge(wr)
		return nil, nil
	}
	if rep == nil {
		rep = wr.Report() // the log holds reports
	}
	frame, id := uploadRecord(rep, id)
	done := make(chan error, 1)
	a.commit <- logged{frame: frame, id: id, up: wr, done: done}
	return done, nil
}

// merge folds an upload's wire view into the shards: it routes the view,
// hashing each entry once before any lock is taken, then merges each
// shard's run of its entries (core.Report.MergeWireRun), and on shard 0
// its health section, under that shard's mutex, with one version bump per
// run and one observation each of the run's lock wait and merge time. It
// is the one merge of a memory-only submit, the committer and WAL replay,
// and it writes the routing into wr and reads wr's entries in place, so
// nothing else may touch wr until it returns. Every caller keeps it so: a
// submitter merges its own upload, the committer answers an upload's
// submitter only after merging it, and replay merges each record before
// reading the next.
func (a *Aggregator) merge(wr *core.WireReport) {
	for i, run := range wr.Runs(len(a.shards)) {
		health := i == 0 && !wr.Health.Zero()
		if len(run) == 0 && !health {
			continue
		}
		s := &a.shards[i]
		asked := time.Now()
		s.mu.Lock()
		start := time.Now()
		if health {
			s.rep.Health.Add(wr.Health)
		}
		s.rep.MergeWireRun(wr, run)
		s.cache.Bump()
		d := time.Since(start)
		s.mu.Unlock()
		a.metrics.noteMerge(start.Sub(asked), d)
	}
}

// runCommitter is the single writer of the node log. It drains up to
// BatchSize uploads at a time, makes them durable with one group-commit
// barrier and merges them (commitBatch). Because it is the only writer of
// a durable node's shards, a gather between batches reads exactly the
// state its records built: that is the compaction cut. It drops each batch
// once answered, so no upload outlives its merge here. On a clean drain it
// compacts the log one final time; a crash abandons the log as it stands.
func (a *Aggregator) runCommitter(w *nodeWAL) {
	defer a.commitWG.Done()
	defer w.close()
	batch := make([]logged, 0, a.cfg.BatchSize)
	for {
		select {
		case <-a.crashCh:
			return
		case l, ok := <-a.commit:
			if !ok {
				// Clean drain: the next boot replays one base record instead
				// of the whole tail.
				if w.records > 0 || w.dirty {
					a.compact(w)
				}
				return
			}
			batch = append(batch, l)
		}
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
		merged := a.commitBatch(w, batch)
		clear(batch)
		batch = batch[:0]
		if !merged {
			return
		}
		if w.records >= a.cfg.WAL.CompactEvery*a.cfg.Shards {
			a.compact(w)
		}
	}
}

// commitBatch makes one batch of uploads durable, merges the survivors and
// answers every upload:
//
//  1. an upload whose ID is in the dedup window or earlier in this batch
//     is not logged again;
//  2. the others are appended to the log, one record each; an append
//     failure fails just that upload (the tail is repaired before the next
//     append);
//  3. one barrier covers the batch (group commit; SyncAlways moves the
//     barrier inside the loop, SyncOff makes it a no-op). A failed barrier
//     rolls the log back to the last durable watermark and fails every
//     upload appended since;
//  4. unless the node crashed meanwhile, the uploads past the barrier
//     enter the dedup window and merge — the in-memory report never holds
//     state the log could lose — and are answered; then each resend is
//     answered, after its first copy merged in this batch or an earlier
//     one, or failed with a first copy in this batch that failed the
//     barrier.
//
// It returns false if a crash stopped it before the merge.
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
			l.done <- err
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
			l.done <- err
		}
		appended = nil
	}
	select {
	case <-a.crashCh:
		return false
	default:
	}
	for _, l := range appended {
		w.dedup.add(l.id)
		a.merge(l.up)
		l.done <- nil
	}
	for _, l := range dups {
		if err != nil && !w.dedup.has(l.id) {
			l.done <- err // its first copy was in this batch
			continue
		}
		l.done <- nil
	}
	return true
}

// compact folds the state the log's records built and compacts the log
// into it. A failure is counted, not returned: the log stays replayable,
// so the committer keeps appending to it and the next batch retries, and
// after a failed final compaction the next boot replays the tail.
func (a *Aggregator) compact(w *nodeWAL) {
	reps, _ := a.gather()
	if err := w.compact(core.FoldReportsShared(reps...)); err != nil {
		a.walM.compactionErrors.Inc()
		return
	}
	a.walM.compactions.Inc()
}

// Fold returns the folded fleet report. While traffic is in flight the
// result is a consistent merge-boundary snapshot per shard (not a global
// cut); once the aggregator is closed and drained it is the exact fleet
// total, byte-identical in Export/Render to a serial merge of every
// accepted upload. The read path is incremental: each shard hands out a
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

// FoldVersioned is Fold plus the shard version vector the fold covers —
// the value a delta-polling client echoes back as /v1/snapshot?since=.
func (a *Aggregator) FoldVersioned() (*core.Report, VersionVector) {
	start := time.Now()
	defer func() { a.metrics.noteFold(time.Since(start)) }()
	reps, vers, ok := a.reports()
	if !ok {
		a.metrics.foldErrors.Inc()
		return core.NewReport(), VersionVector{}
	}
	a.foldMu.Lock()
	defer a.foldMu.Unlock()
	rep, hit := a.foldCache.Update(reps, vers)
	if hit {
		a.metrics.foldCacheHits.Inc()
	}
	return rep, VersionVector{Epoch: a.epoch, Shards: vers}
}

// reports is the gather behind reads: ok is false after a crash, which
// abandons the shards' state.
func (a *Aggregator) reports() (reps []*core.Report, vers []uint64, ok bool) {
	select {
	case <-a.crashCh:
		return nil, nil, false
	default:
	}
	reps, vers = a.gather()
	return reps, vers, true
}

// gather takes every shard's cached persistent snapshot and its version,
// both under the shard's mutex so the pair is consistent: the one read
// behind Fold, Delta, scrape and compaction.
func (a *Aggregator) gather() (reps []*core.Report, vers []uint64) {
	reps = make([]*core.Report, len(a.shards))
	vers = make([]uint64, len(a.shards))
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		if s.cache.Cached() {
			a.metrics.snapshotReuses.Inc()
		}
		reps[i], vers[i] = s.cache.Snapshot(), s.cache.Version()
		s.mu.Unlock()
	}
	return reps, vers
}

// Delta answers a delta-snapshot poll: given the vector a client captured
// from a previous response, it returns an immutable report holding only
// the entries changed since then (plus the fleet's full health section,
// which is absolute and rides every delta), the current vector, and
// delta=true. It gathers the shards' snapshots, as Fold does, and walks
// each one's subtrees stamped after the client's version of that shard
// into one report (core.DeltaSince). A vector from another epoch (node
// restart) or a different shard count cannot be compared — the reply
// degrades to the full fold with delta=false, which is the self-healing
// resync path. After a Crash it fails as Fold does.
func (a *Aggregator) Delta(since VersionVector) (rep *core.Report, vec VersionVector, delta bool) {
	if since.Epoch != a.epoch || len(since.Shards) != len(a.shards) {
		rep, vec = a.FoldVersioned()
		return rep, vec, false
	}
	reps, vers, ok := a.reports()
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
	return core.DeltaSince(reps, since.Shards), VersionVector{Epoch: a.epoch, Shards: vers}, true
}

// Close drains and stops the aggregator: no new uploads are accepted, but
// every upload already admitted merges before Close returns, so a
// graceful shutdown loses nothing it acknowledged. With a WAL, the
// committer drains and compacts the log one final time. Reads keep
// working after Close. Close is idempotent.
func (a *Aggregator) Close() {
	a.mu.Lock()
	first := !a.closed
	// The write lock waited out every submit in hand-off (and on a
	// memory-only node every merge), and closed keeps new ones out.
	a.closed = true
	a.mu.Unlock()
	if first && a.commit != nil {
		close(a.commit) // submitters were its only senders
	}
	// Whether the first teardown was a Close or a Crash, the committer
	// exits; wait so the WAL directory is quiescent on return.
	a.commitWG.Wait()
}

// Crash tears the aggregator down abruptly — no drain, no final
// compaction, no acks: the process-kill model the crash-recovery tests
// and the chaos harness exercise. Whatever the node log physically holds
// is what a subsequent Open of the same WAL directory recovers. In-flight
// durable submits return ErrCrashed (their uploads are unacknowledged and
// safe to resend), and reads fail. Crash is idempotent; Crash after Close
// only waits for the drain.
func (a *Aggregator) Crash() {
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		close(a.crashCh)
	}
	a.mu.Unlock()
	// Callers reopen the WAL directory next: return once the committer no
	// longer touches it.
	a.commitWG.Wait()
}

// String describes the aggregator's shape for logs.
func (a *Aggregator) String() string {
	wal := "off"
	if a.cfg.WAL != nil {
		wal = fmt.Sprintf("dir=%s sync=%s batch=%d compact-every=%d",
			a.cfg.WAL.Dir, a.cfg.WAL.Sync, a.cfg.BatchSize, a.cfg.WAL.CompactEvery)
	}
	return fmt.Sprintf("fleet.Aggregator{shards=%d queue=%d wal=%s}", a.cfg.Shards, a.cfg.QueueDepth, wal)
}
