package core

// snapshot.go is the incremental read path: versioned persistent
// snapshots of a mutating report, an incremental fold cache over disjoint
// parts, and the absolute-state application the delta protocol's client
// side needs. All three rest on the report's entry trie (trie.go), so each
// read costs O(changed state), not O(total state):
//
//   - A shard owns a mutating Report and a SnapshotCache bound to it.
//     Merges stamp every leaf they write with the version their batch
//     commits at, and the cache bumps a monotonically increasing version
//     once per batch. A snapshot is the live report's trie itself, handed
//     out as it stands; the live report goes on as a new batch over it, so
//     the first write after a hand-out copies the nodes and leaf it
//     touches, and the snapshot never changes. A snapshot request at an
//     unchanged version returns the cached snapshot. A delta walks only
//     the subtrees stamped after its base.
//   - The aggregator folds shard snapshots through a FoldCache keyed by the
//     shard version vector: only shards whose version moved are re-merged,
//     in one batch over the previous fold, and because shards own disjoint
//     entry-key ranges the fold shares entry pointers instead of
//     deep-copying device sets.
//   - A regional poller mirrors each node with ApplyWireFull/ApplyWireDelta
//     and re-derives only the changed keys of its fold with RefreshKeys,
//     which returns a new report sharing structure with the old one.
//
// Everything here preserves the repo's one determinism bar: any cached,
// shared, or incremental fold is byte-identical in Export/Render to a
// from-scratch serial FoldReports of the same parts. Sharing is safe
// because snapshots are immutable by contract: every consumer (encode,
// export, render, merge-as-source) only reads them, and a trie that was
// handed out is only ever extended by batches that copy what they change.

// ---------------------------------------------------------------------------
// Versioned persistent snapshots

// SnapshotCache versions a mutating Report so reads can reuse prior work.
// The owner merges into the report and bumps the version once per
// mutation batch, and serves reads through Snapshot, which hands out the
// report's trie in O(1). Each leaf carries the version of the batch that
// last changed it, so DeltaSince answers "what moved since version v" with
// a walk of the newer subtrees, without diffing state.
//
// A SnapshotCache is owned by the goroutine that owns the Report; it is
// not safe for concurrent use. The *Report values it returns are
// immutable and safe to share across goroutines.
type SnapshotCache struct {
	live    *Report
	version uint64
	snap    *Report // live as handed out at version, or nil
}

// NewSnapshotCache returns a cache at version 0 over live, whose merges
// from then on are stamped with the version of the batch they belong to.
// Entries live already holds keep their stamps (0 for a report nothing
// versioned).
func NewSnapshotCache(live *Report) *SnapshotCache {
	live.entries.ver = 1
	return &SnapshotCache{live: live}
}

// Version returns the current state version: 0 until the first Bump, then
// monotonically increasing.
func (sc *SnapshotCache) Version() uint64 { return sc.version }

// Bump commits one mutation batch: the version moves even when the batch
// touched no entry (a health-only merge still changes report bytes), and
// the live report's later merges are stamped with the next version.
func (sc *SnapshotCache) Bump() {
	sc.version++
	sc.snap = nil
	sc.live.entries.ver = sc.version + 1
}

// Cached reports whether the next Snapshot call will return the cached
// snapshot unchanged (nothing has moved since it was handed out).
func (sc *SnapshotCache) Cached() bool { return sc.snap != nil }

// Snapshot returns an immutable snapshot of the live report at the current
// version. If the version is unchanged since the last call the cached
// snapshot is returned as-is. Otherwise the live report's trie is handed
// out as the snapshot, sharing every node, leaf and entry, and the live
// report continues as a new batch over it. Callers must treat the result
// (and everything reachable from it) as read-only.
func (sc *SnapshotCache) Snapshot() *Report {
	if sc.snap == nil {
		live := sc.live
		sc.snap = &Report{entries: live.entries, totalHangs: live.totalHangs, Health: live.Health}
		live.entries = live.entries.batch()
	}
	return sc.snap
}

// DeltaSince returns the current version and an immutable report holding
// exactly the entries changed after version since, with the live report's
// full Health (health rides every delta — it is absolute, cheap, and saves
// tracking a separate health version). Entries, and the trie leaves
// binding them, are shared with the current snapshot.
// since at or beyond the current version yields an entry-less report.
func (sc *SnapshotCache) DeltaSince(since uint64) (*Report, uint64) {
	snap := sc.Snapshot()
	out := &Report{Health: snap.Health}
	snap.entries.changedSince(since, func(l *trieLeaf) {
		out.entries.put(l)
		out.totalHangs = satAdd(out.totalHangs, l.e.Hangs)
	})
	return out, sc.version
}

// ---------------------------------------------------------------------------
// Shared and incremental folds over disjoint parts

// addShared folds part into out, sharing part's entries (and the trie
// leaves binding them) for keys out does not hold. On a key collision the
// existing entry is cloned before merging (it may be shared with an
// earlier part or a previous fold), so the fold never mutates its inputs
// and the result matches a serial deep Merge byte for byte.
func (r *Report) addShared(part *Report) {
	r.Health.Add(part.Health)
	r.totalHangs = satAdd(r.totalHangs, part.totalHangs)
	part.entries.each(func(l *trieLeaf) {
		if old := r.entries.put(l); old != nil {
			merged, _ := r.entries.bind(l.key, old.e, nil)
			merged.merge(l.e, nil)
		}
	})
}

// FoldReportsShared is FoldReports for immutable parts with (mostly)
// disjoint entry-key sets — the shape of shard snapshots, whose keys are
// routed by ShardIndexKey. Entries are shared, not deep-copied, so the fold
// costs trie inserts instead of device-set clones; collisions fall back to
// a copy-on-write merge, keeping the result byte-identical to FoldReports
// for any input. The result must be treated as read-only.
func FoldReportsShared(parts ...*Report) *Report {
	out := NewReport()
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
	result *Report   // immutable fold of parts at vers
	parts  []*Report // the parts result folds
	vers   []uint64  // part versions result covers
}

// Update returns the fold of parts at versions vers (one per part) and
// whether it is the cached fold, reused because no version moved. Parts
// whose version moved write into the previous fold, in one batch, the
// leaves where their trie differs from the part the fold last saw: a new
// snapshot shares every unchanged subtree with its predecessor, so this
// costs the changed entries, and each changed path is copied once.
// Totals and health are re-summed from the parts (O(parts), not
// O(entries)). A gather behind the cached vector in any part — a
// concurrent reader cached a newer one — is folded afresh and not cached,
// so the cache only moves forward. The first call or a change of part
// count rebuilds the fold. The returned report is immutable.
func (fc *FoldCache) Update(parts []*Report, vers []uint64) (rep *Report, hit bool) {
	if fc.result == nil || len(fc.vers) != len(vers) {
		fc.result, fc.parts, fc.vers = FoldReportsShared(parts...), append([]*Report(nil), parts...), vers
		return fc.result, false
	}
	moved := false
	for i, v := range vers {
		if v < fc.vers[i] {
			return FoldReportsShared(parts...), false
		}
		moved = moved || v != fc.vers[i]
	}
	if !moved {
		return fc.result, true
	}
	out := &Report{entries: fc.result.entries.batch()}
	for i, p := range parts {
		if p == nil {
			continue
		}
		if vers[i] != fc.vers[i] {
			// The part's key set only grows and no other part holds its
			// keys, so its changed leaves are all the fold must take.
			var prev *trieNode
			if fc.parts[i] != nil {
				prev = fc.parts[i].entries.root
			}
			diffLeaves(prev, p.entries.root, 0, func(l *trieLeaf) { out.entries.put(l) })
		}
		out.totalHangs = satAdd(out.totalHangs, p.totalHangs)
		out.Health.Add(p.Health)
	}
	fc.result, fc.parts, fc.vers = out, append([]*Report(nil), parts...), vers
	return out, false
}

// ---------------------------------------------------------------------------
// Absolute (delta-protocol) application

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
		src := we.entry()
		if _, old := r.entries.bind(we.Key, &src, we.Devices); old != nil {
			r.totalHangs -= old.Hangs
		}
		r.totalHangs = satAdd(r.totalHangs, we.Hangs)
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
	changed := make([]string, 0, r.entries.n+len(wr.Entries))
	old := r.entries
	r.entries = entryTrie{}
	r.totalHangs = 0
	for i := range wr.Entries {
		we := &wr.Entries[i]
		src := we.entry()
		r.entries.bind(we.Key, &src, we.Devices)
		r.totalHangs = satAdd(r.totalHangs, we.Hangs)
		changed = append(changed, we.Key)
	}
	old.each(func(l *trieLeaf) {
		if r.entries.get(l.key) == nil {
			changed = append(changed, l.key)
		}
	})
	r.Health = wr.Health
	return changed
}

// RefreshKeys returns r with its entries at the given keys re-derived as
// the fold of the corresponding entries across parts, in part order, and
// its totals and health re-summed from the parts. A key held by no part is
// deleted. The result is one batch over r's trie: it shares every
// unchanged node and entry with r, and r itself stays unchanged, so r may
// already be handed out — the regional tier serves each round's result
// as-is. Byte-identity: after refreshing every changed key, the result
// equals FoldReports(parts...) exactly.
func (r *Report) RefreshKeys(keys []string, parts ...*Report) *Report {
	out := &Report{entries: r.entries.batch()}
	for _, key := range keys {
		var merged *ReportEntry
		for _, p := range parts {
			if p == nil {
				continue
			}
			e := p.entries.get(key)
			if e == nil {
				continue
			}
			if merged == nil {
				merged, _ = out.entries.bind(key, e, nil)
			} else {
				merged.merge(e, nil)
			}
		}
		if merged == nil {
			out.entries.del(key)
		}
	}
	for _, p := range parts {
		if p != nil {
			out.totalHangs = satAdd(out.totalHangs, p.totalHangs)
			out.Health.Add(p.Health)
		}
	}
	return out
}
