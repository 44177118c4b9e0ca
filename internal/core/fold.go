package core

// This file holds the merge/fold helpers the fleet ingestion service builds
// on: routing an upload's wire entries to per-shard fragments and folding
// the shard-local reports back into one fleet view. Every operation here is
// a rearrangement of Merge's commutative sums and set unions, so any
// partition/fold composition yields byte-identical Export/Render output to
// a serial Merge of the same uploads — the determinism guarantee the
// sharded server's tests pin down.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv64a continues the FNV-1a hash h over s, inline (no hash.Hash
// allocation — shard routing runs once per entry on the submit hot path).
func fnv64a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// ShardIndex returns the shard an entry with the identity (app,
// actionUID, rootCause) belongs to: a stable FNV-1a hash of the bytes
// EntryKey joins them to, modulo the shard count, computed without
// building that string. Every device reporting the same identity lands on
// the same shard, so each shard owns a disjoint slice of the fleet's
// entries.
func ShardIndex(app, actionUID, rootCause string, shards int) int {
	if shards <= 1 {
		return 0
	}
	// A separator byte 0 leaves h unchanged by the xor: it only multiplies.
	h := fnv64a(fnvOffset, app) * fnvPrime
	h = fnv64a(h, actionUID) * fnvPrime
	h = fnv64a(h, rootCause)
	return int(h % uint64(shards))
}

// FoldReports merges parts (nil entries are skipped) into a fresh report.
// Because Merge is commutative and associative, the fold result is
// independent of part order and of how entries were partitioned.
func FoldReports(parts ...*Report) *Report {
	out := NewReport()
	for _, p := range parts {
		if p != nil {
			out.Merge(p)
		}
	}
	return out
}
