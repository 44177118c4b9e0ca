package core

// This file holds the merge/fold helpers the fleet ingestion service builds
// on: routing an upload's wire entries to per-shard fragments and folding
// the shard-local reports back into one fleet view. Every operation here is
// a rearrangement of Merge's commutative sums and set unions, so any
// partition/fold composition yields byte-identical Export/Render output to
// a serial Merge of the same uploads — the determinism guarantee the
// sharded server's tests pin down.

// fnv64a hashes s with FNV-1a inline (no hash.Hash allocation — shard
// routing runs once per entry on the submit hot path).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ShardIndexKey returns the shard an entry belongs to: a stable FNV-1a
// hash of its entry key modulo the shard count, computed without
// allocating. Every device reporting the same (app, action, root cause)
// lands on the same shard, so each shard owns a disjoint slice of the
// fleet's entry key space.
func ShardIndexKey(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(fnv64a(key) % uint64(shards))
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
