package core

// snapshot.go is the incremental read path: versioned copy-on-write
// snapshots of a mutating report, an incremental fold cache over disjoint
// parts, and the absolute-state application the delta protocol's client
// side needs. Together they turn the fleet read path from O(total state)
// per request into O(changed state):
//
//   - A shard owns a mutating Report and a SnapshotCache. Merges mark the
//     touched entry keys dirty and bump a monotonically increasing version;
//     a snapshot request at an unchanged version returns the cached
//     immutable snapshot, and an outdated one re-clones only the dirtied
//     entries, sharing every clean *ReportEntry with the previous snapshot.
//   - The aggregator folds shard snapshots through a FoldCache keyed by the
//     shard version vector: only shards whose version moved are re-merged,
//     and because shards own disjoint entry-key ranges the fold shares
//     entry pointers instead of deep-copying device sets.
//   - A regional poller mirrors each node with ApplyWireFull/ApplyWireDelta
//     and re-derives only the changed keys of its fold with RefreshKeys.
//
// Everything here preserves the repo's one determinism bar: any cached,
// shared, or incremental fold is byte-identical in Export/Render to a
// from-scratch serial FoldReports of the same parts. Sharing is safe
// because snapshots are immutable by contract: every consumer (encode,
// export, render, merge-as-source) only reads them.

// ---------------------------------------------------------------------------
// Versioned copy-on-write snapshots

// SnapshotCache tracks a mutating Report's changes so reads can reuse
// prior work. The owner marks every entry key it touches, bumps the
// version once per mutation batch, and serves reads through Snapshot —
// which is free when nothing changed and proportional to the dirty set
// otherwise. It additionally remembers, per key, the version that last
// changed it, so DeltaSince can answer "what moved since version v"
// without diffing state.
//
// A SnapshotCache is owned by the goroutine that owns the Report; it is
// not safe for concurrent use. The *Report values it returns are
// immutable and safe to share across goroutines.
type SnapshotCache struct {
	version uint64
	dirty   map[string]struct{} // keys touched since the last Snapshot build
	mod     map[string]uint64   // key -> version of its last change
	snap    *Report             // cached immutable snapshot
	snapV   uint64              // version snap covers
}

// NewSnapshotCache returns an empty cache at version 0.
func NewSnapshotCache() *SnapshotCache {
	return &SnapshotCache{dirty: map[string]struct{}{}, mod: map[string]uint64{}}
}

// Version returns the current state version: 0 until the first Bump, then
// monotonically increasing.
func (sc *SnapshotCache) Version() uint64 { return sc.version }

// MarkKey records that the entry at key is about to change in the batch
// the next Bump commits.
func (sc *SnapshotCache) MarkKey(key string) {
	sc.dirty[key] = struct{}{}
	sc.mod[key] = sc.version + 1
}

// MarkReport marks every entry key of frag (the fragment about to merge).
func (sc *SnapshotCache) MarkReport(frag *Report) {
	for key := range frag.entries {
		sc.MarkKey(key)
	}
}

// MarkWireEntries marks the precomputed keys of decoded wire entries.
func (sc *SnapshotCache) MarkWireEntries(entries []WireEntry) {
	for i := range entries {
		sc.MarkKey(entries[i].Key)
	}
}

// Bump commits one mutation batch: the version moves even when the batch
// touched no entry keys (a health-only merge still changes report bytes).
func (sc *SnapshotCache) Bump() { sc.version++ }

// Cached reports whether the next Snapshot call will return the cached
// snapshot unchanged (nothing has moved since it was built).
func (sc *SnapshotCache) Cached() bool { return sc.snap != nil && sc.snapV == sc.version }

// Snapshot returns an immutable snapshot of live at the current version.
// If the version is unchanged since the last call the cached snapshot is
// returned as-is; otherwise a new one is built copy-on-write: dirtied
// entries are deep-cloned from live, clean entries share their
// *ReportEntry with the previous snapshot. Callers must treat the result
// (and everything reachable from it) as read-only.
func (sc *SnapshotCache) Snapshot(live *Report) *Report {
	if sc.snap != nil && sc.snapV == sc.version {
		return sc.snap
	}
	out := NewReport()
	out.entries = make(map[string]*ReportEntry, len(live.entries))
	out.totalHangs = live.totalHangs
	out.Health = live.Health
	var prev map[string]*ReportEntry
	if sc.snap != nil {
		prev = sc.snap.entries
	}
	for key, e := range live.entries {
		if _, isDirty := sc.dirty[key]; !isDirty {
			if pe, ok := prev[key]; ok {
				out.entries[key] = pe
				continue
			}
		}
		out.entries[key] = e.clone()
	}
	clear(sc.dirty)
	sc.snap, sc.snapV = out, sc.version
	return out
}

// DeltaSince returns the current version and an immutable report holding
// only the entries changed after version since, with live's full Health
// (health rides every delta — it is absolute, cheap, and saves tracking a
// separate health version). Entries are shared with the current snapshot.
// since at or beyond the current version yields an entry-less report.
func (sc *SnapshotCache) DeltaSince(live *Report, since uint64) (*Report, uint64) {
	snap := sc.Snapshot(live)
	out := NewReport()
	out.Health = snap.Health
	if since < sc.version {
		for key, v := range sc.mod {
			if v <= since {
				continue
			}
			if e, ok := snap.entries[key]; ok {
				out.entries[key] = e
				out.totalHangs += e.Hangs
			}
		}
	}
	return out, sc.version
}

// ---------------------------------------------------------------------------
// Shared and incremental folds over disjoint parts

// addShared folds part into out, sharing part's entry pointers for keys out
// does not hold. On a key collision the existing entry is cloned before
// merging (it may be shared with an earlier part or a previous fold), so
// the fold never mutates its inputs and the result matches a serial deep
// Merge byte for byte.
func (r *Report) addShared(part *Report) {
	r.Health.Add(part.Health)
	r.totalHangs += part.totalHangs
	for key, e := range part.entries {
		if cur, ok := r.entries[key]; ok {
			ne := cur.clone()
			ne.merge(e, nil)
			r.entries[key] = ne
			continue
		}
		r.entries[key] = e
	}
}

// FoldReportsShared is FoldReports for immutable parts with (mostly)
// disjoint entry-key sets — the shape of shard snapshots, whose keys are
// routed by ShardIndex. Entries are shared, not deep-copied, so the fold
// costs map inserts instead of device-set clones; collisions fall back to
// a copy-on-write merge, keeping the result byte-identical to FoldReports
// for any input. The result must be treated as read-only.
func FoldReportsShared(parts ...*Report) *Report {
	out := NewReport()
	n := 0
	for _, p := range parts {
		if p != nil {
			n += len(p.entries)
		}
	}
	out.entries = make(map[string]*ReportEntry, n)
	for _, p := range parts {
		if p != nil {
			out.addShared(p)
		}
	}
	return out
}

// FoldCache incrementally maintains the fold of an indexed family of
// immutable parts across calls, keyed by the parts' version vector. It
// requires what the sharded aggregator guarantees: part i always holds the
// same key range (pairwise disjoint across parts), and its key set only
// grows as its version rises. Under those invariants the fold is
// byte-identical to FoldReports over the same parts.
type FoldCache struct {
	result *Report  // immutable fold of the parts at vers
	vers   []uint64 // part versions result covers
}

// Update returns the fold of parts at versions vers (one per part) and
// whether it is the cached fold, reused because no version moved. Parts
// whose version moved overwrite their own keys in a copy of the previous
// fold, sharing every other entry; totals and health are re-summed from
// the parts (O(parts), not O(entries)). A gather behind the cached vector
// in any part — a concurrent reader cached a newer one — is folded afresh
// and not cached, so the cache only moves forward. The first call, a
// change of part count, or every part moving rebuilds the fold. The
// returned report is immutable.
func (fc *FoldCache) Update(parts []*Report, vers []uint64) (rep *Report, hit bool) {
	if fc.result == nil || len(fc.vers) != len(vers) {
		fc.result, fc.vers = FoldReportsShared(parts...), vers
		return fc.result, false
	}
	moved := 0
	for i, v := range vers {
		if v < fc.vers[i] {
			return FoldReportsShared(parts...), false
		}
		if v != fc.vers[i] {
			moved++
		}
	}
	switch moved {
	case 0:
		return fc.result, true
	case len(parts):
		// Copying the previous fold first would be pure waste: every
		// entry gets overwritten.
		fc.result, fc.vers = FoldReportsShared(parts...), vers
		return fc.result, false
	}
	out := NewReport()
	out.entries = make(map[string]*ReportEntry, len(fc.result.entries))
	for key, e := range fc.result.entries {
		out.entries[key] = e
	}
	for i, p := range parts {
		if p == nil {
			continue
		}
		if vers[i] != fc.vers[i] {
			// The part's new snapshot covers every key it ever held (keys
			// are only added), so overwriting replaces all of its stale
			// entries and touches nothing owned by other parts.
			for key, e := range p.entries {
				out.entries[key] = e
			}
		}
		out.totalHangs += p.totalHangs
		out.Health.Add(p.Health)
	}
	fc.result, fc.vers = out, vers
	return out, false
}

// ---------------------------------------------------------------------------
// Absolute (delta-protocol) application

// entryFromWire materializes one decoded wire entry as a standalone
// ReportEntry carrying the entry's absolute state.
func entryFromWire(we *WireEntry) *ReportEntry {
	src := we.entry()
	e := src.empty(len(we.Devices))
	e.merge(&src, we.Devices)
	return e
}

// ApplyWireDelta applies a delta-snapshot document to r, which mirrors one
// upstream node's state: each wire entry REPLACES r's entry of the same
// key with the absolute values carried on the wire (unlike MergeWire,
// which adds them), and r's health is replaced by the document's. It
// returns the keys that were replaced. This is the client half of the
// /v1/snapshot?since= protocol.
func (r *Report) ApplyWireDelta(wr *WireReport) []string {
	changed := make([]string, 0, len(wr.Entries))
	for i := range wr.Entries {
		we := &wr.Entries[i]
		if old, ok := r.entries[we.Key]; ok {
			r.totalHangs -= old.Hangs
		}
		r.entries[we.Key] = entryFromWire(we)
		r.totalHangs += we.Hangs
		changed = append(changed, we.Key)
	}
	r.Health = wr.Health
	return changed
}

// ApplyWireFull replaces r wholesale with a full-snapshot document,
// returning every key whose entry may differ afterwards: the union of the
// old and new key sets (a restarted upstream may have *lost* entries, so
// stale keys count as changed too).
func (r *Report) ApplyWireFull(wr *WireReport) []string {
	changed := make([]string, 0, len(r.entries)+len(wr.Entries))
	old := r.entries
	r.entries = make(map[string]*ReportEntry, len(wr.Entries))
	r.totalHangs = 0
	for i := range wr.Entries {
		we := &wr.Entries[i]
		r.entries[we.Key] = entryFromWire(we)
		r.totalHangs += we.Hangs
		changed = append(changed, we.Key)
	}
	for key := range old {
		if _, ok := r.entries[key]; !ok {
			changed = append(changed, key)
		}
	}
	r.Health = wr.Health
	return changed
}

// RefreshKeys re-derives r's entries at the given keys as the fold of the
// corresponding entries across parts, in part order, and re-sums r's
// totals and health from the parts. A key held by no part is deleted.
// Entries are rebuilt fresh (never mutated in place), so a snapshot that
// shares r's old entry pointers stays valid — the property the regional
// tier's copy-on-write serving depends on. Byte-identity: after refreshing
// every changed key, r equals FoldReports(parts...) exactly.
func (r *Report) RefreshKeys(keys []string, parts ...*Report) {
	for _, key := range keys {
		var merged *ReportEntry
		for _, p := range parts {
			if p == nil {
				continue
			}
			e, ok := p.entries[key]
			if !ok {
				continue
			}
			if merged == nil {
				merged = e.empty(len(e.Devices))
			}
			merged.merge(e, nil)
		}
		if merged == nil {
			delete(r.entries, key)
		} else {
			r.entries[key] = merged
		}
	}
	r.totalHangs = 0
	r.Health = Health{}
	for _, p := range parts {
		if p != nil {
			r.totalHangs += p.totalHangs
			r.Health.Add(p.Health)
		}
	}
}
