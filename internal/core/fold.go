package core

// This file holds the merge/fold helpers the fleet ingestion service builds
// on: partitioning a device upload into per-shard fragments and folding the
// shard-local reports back into one fleet view. Every operation here is a
// rearrangement of Merge's commutative sums and set unions, so any
// partition/fold composition yields byte-identical Export/Render output to a
// serial Merge of the same uploads — the determinism guarantee the sharded
// server's tests pin down.

// fnv64a hashes s with FNV-1a inline (no hash.Hash allocation — shard
// routing runs once per entry on the dispatch hot path).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ShardIndex returns the shard an entry belongs to: a stable FNV-1a hash of
// the entry identity modulo the shard count. Every device reporting the
// same (app, action, root cause) lands on the same shard, so each shard owns
// a disjoint slice of the fleet's entry key space.
func ShardIndex(appName, actionUID, rootCause string, shards int) int {
	return ShardIndexKey(entryKey(appName, actionUID, rootCause), shards)
}

// ShardIndexKey is ShardIndex for an already-built entry key (the form
// decoded binary uploads carry); it hashes without allocating.
func ShardIndexKey(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(fnv64a(key) % uint64(shards))
}

// Clone returns a deep copy of the report; mutating either copy never
// affects the other. Shards use it to answer snapshot requests without
// handing their single-writer state to a reader.
func (r *Report) Clone() *Report {
	out := NewReport()
	out.totalHangs = r.totalHangs
	out.Health = r.Health
	for key, e := range r.entries {
		out.entries[key] = e.clone()
	}
	return out
}

// Split partitions the report into shards fragment reports by ShardIndex of
// each entry. The report's Health counters ride on fragment 0 (they are
// device-wide, not per-entry, and must be counted exactly once), and each
// fragment's hang total covers only its own entries, so merging every
// fragment reconstructs the original report exactly. Entries are deep-copied;
// the receiver is left untouched. Fragments with no entries and zero health
// are returned as nil so callers can skip routing them.
func (r *Report) Split(shards int) []*Report {
	if shards <= 1 {
		frag := r.Clone()
		if frag.Len() == 0 && frag.Health.Zero() {
			return []*Report{nil}
		}
		return []*Report{frag}
	}
	out := make([]*Report, shards)
	frag := func(i int) *Report {
		if out[i] == nil {
			out[i] = NewReport()
		}
		return out[i]
	}
	if !r.Health.Zero() {
		frag(0).Health = r.Health
	}
	for key, e := range r.entries {
		f := frag(ShardIndex(e.App, e.ActionUID, e.RootCause, shards))
		f.entries[key] = e.clone()
		f.totalHangs += e.Hangs
	}
	return out
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
