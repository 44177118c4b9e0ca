package fleet

import (
	"time"

	"hangdoctor/internal/obs"
)

// Metrics is the aggregator's ingestion accounting, held in an obs
// registry so fleetd's /metrics is the standard exposition rather than a
// hand-rolled formatter. Every counter is a lock-free obs counter: the
// submit hot path never takes a lock to account an upload, and a shard
// accounts its merges once per batch.
type Metrics struct {
	reg *obs.Registry

	accepted *obs.Counter
	rejected *obs.Counter
	invalid  *obs.Counter

	// binaryUploads counts uploads that arrived in the binary wire encoding;
	// dictMismatches counts dictionary-delta documents rejected with the
	// 409 resync protocol (client resets and resends a full dictionary).
	binaryUploads  *obs.Counter
	dictMismatches *obs.Counter

	// merges counts shard merge calls and mergedFragments the fragments
	// they folded; mergeLatency distributes per-merge wall time, so its
	// _sum line is the total time spent merging.
	merges          *obs.Counter
	mergedFragments *obs.Counter
	mergeLatency    *obs.Histogram
	// foldLatency distributes whole-fleet fold (read-path) wall time.
	foldLatency *obs.Histogram

	// Incremental read-path accounting: foldErrors counts folds that
	// degraded to an empty report because shard state was unreachable
	// (crash unwound the gather) — the /healthz degraded marker;
	// foldCacheHits counts folds served from the version-vector cache
	// without re-merging; snapshotReuses counts shard snapshot requests
	// answered by the cached COW snapshot (shard version unchanged);
	// deltaRequests counts /v1/snapshot?since= polls answered with a
	// delta; fullResyncs counts since= polls that degraded to a full
	// snapshot (epoch/shard-count mismatch — the self-healing path).
	foldErrors     *obs.Counter
	foldCacheHits  *obs.Counter
	snapshotReuses *obs.Counter
	deltaRequests  *obs.Counter
	fullResyncs    *obs.Counter

	// wal holds the durability-layer families; nil until initWAL (so a
	// memory-only aggregator's exposition carries no wal series).
	wal *walMetrics
}

// walMetrics is the durability layer's accounting: appends and the bytes
// and fsyncs behind them, compactions and failed ones, and the
// recovery-side counters (replayed records, truncated tails, corrupt
// records, replay latency). All counters are lock-free obs counters bumped
// by the committer (and, before intake opens, by recovery).
type walMetrics struct {
	appended         *obs.Counter
	bytesWritten     *obs.Counter
	fsyncs           *obs.Counter
	appendErrors     *obs.Counter
	deduped          *obs.Counter
	compactions      *obs.Counter
	compactionErrors *obs.Counter
	replayed         *obs.Counter
	truncatedTails   *obs.Counter
	corruptRecords   *obs.Counter
	replayLatency    *obs.Histogram
}

// initWAL registers the durability families (idempotent) and returns them.
func (m *Metrics) initWAL() *walMetrics {
	if m.wal != nil {
		return m.wal
	}
	reg := m.reg
	m.wal = &walMetrics{
		appended: reg.Counter("hangdoctor_fleet_wal_records_appended_total",
			"Upload records appended to the node log."),
		bytesWritten: reg.Counter("hangdoctor_fleet_wal_bytes_written_total",
			"Framed bytes appended to the node log."),
		fsyncs: reg.Counter("hangdoctor_fleet_wal_fsyncs_total",
			"Durability barriers (fsyncs) issued on the node log."),
		appendErrors: reg.Counter("hangdoctor_fleet_wal_append_errors_total",
			"Failed appends or barriers (the upload was not acknowledged)."),
		deduped: reg.Counter("hangdoctor_fleet_wal_fragments_deduped_total",
			"Uploads skipped because they were already durable (resend after crash or 5xx); the name predates whole-upload log records."),
		compactions: reg.Counter("hangdoctor_fleet_wal_compactions_total",
			"Snapshot compactions (log rotations)."),
		compactionErrors: reg.Counter("hangdoctor_fleet_wal_compaction_errors_total",
			"Failed snapshot compactions (the log stays replayable; the next batch retries)."),
		replayed: reg.Counter("hangdoctor_fleet_wal_replayed_records_total",
			"Upload records replayed from the log tail at startup."),
		truncatedTails: reg.Counter("hangdoctor_fleet_wal_truncated_tails_total",
			"Torn or trailing-garbage log tails truncated during recovery or repair."),
		corruptRecords: reg.Counter("hangdoctor_fleet_wal_corrupt_records_total",
			"Mid-log records failing CRC or decode (prefix salvaged)."),
		replayLatency: reg.Histogram("hangdoctor_fleet_wal_replay_latency_ns",
			"Wall time of the node log's snapshot-plus-tail replay.",
			obs.ExpBuckets(4096, 4, 14)),
	}
	return m.wal
}

func newMetrics(queueCap int) *Metrics {
	reg := obs.NewRegistry()
	reg.GaugeFunc("hangdoctor_fleet_queue_capacity",
		"Configured bound on uploads admitted but not yet handed off.",
		func() int64 { return int64(queueCap) })
	return &Metrics{
		reg: reg,
		accepted: reg.Counter("hangdoctor_fleet_uploads_accepted_total",
			"Uploads admitted through an admission slot."),
		rejected: reg.Counter("hangdoctor_fleet_uploads_rejected_total",
			"Uploads refused for backpressure or shutdown."),
		invalid: reg.Counter("hangdoctor_fleet_uploads_invalid_total",
			"Uploads that failed validation."),
		binaryUploads: reg.Counter("hangdoctor_fleet_uploads_binary_total",
			"Uploads received in the binary wire encoding."),
		dictMismatches: reg.Counter("hangdoctor_fleet_dict_mismatches_total",
			"Binary uploads rejected for a dictionary-delta mismatch (409 resync)."),
		merges: reg.Counter("hangdoctor_fleet_merges_total",
			"Shard merge calls."),
		mergedFragments: reg.Counter("hangdoctor_fleet_merged_fragments_total",
			"Fragments folded across all merges."),
		mergeLatency: reg.Histogram("hangdoctor_fleet_merge_latency_ns",
			"Wall time of one shard merge call.",
			obs.ExpBuckets(1024, 4, 12)),
		foldLatency: reg.Histogram("hangdoctor_fleet_fold_latency_ns",
			"Wall time of folding every shard into one fleet report.",
			obs.ExpBuckets(1024, 4, 12)),
		foldErrors: reg.Counter("hangdoctor_fleet_fold_errors_total",
			"Folds that returned an empty report because shard state was unreachable."),
		foldCacheHits: reg.Counter("hangdoctor_fleet_fold_cache_hits_total",
			"Folds served from the version-vector fold cache without re-merging."),
		snapshotReuses: reg.Counter("hangdoctor_fleet_shard_snapshot_reuses_total",
			"Shard snapshot requests answered by the cached copy-on-write snapshot."),
		deltaRequests: reg.Counter("hangdoctor_fleet_delta_requests_total",
			"Snapshot polls answered with a delta (changed entries only)."),
		fullResyncs: reg.Counter("hangdoctor_fleet_full_resyncs_total",
			"since= snapshot polls that degraded to a full snapshot (vector mismatch)."),
	}
}

// Registry exposes the live obs registry, for serving /metrics and for
// registering process-level series (queue depth, shard gauges) next to
// the ingestion counters.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// NoteInvalid counts an upload that failed validation before it could be
// submitted (the HTTP layer's 400 path).
func (m *Metrics) NoteInvalid() { m.invalid.Inc() }

// noteMerge accounts one shard merge call of frags fragments.
func (m *Metrics) noteMerge(frags int, d time.Duration) {
	m.merges.Inc()
	m.mergedFragments.Add(int64(frags))
	m.mergeLatency.Observe(float64(d.Nanoseconds()))
}

// noteFold accounts one whole-fleet fold.
func (m *Metrics) noteFold(d time.Duration) {
	m.foldLatency.Observe(float64(d.Nanoseconds()))
}
