package core

// snapshot.go is the incremental read path: versioned persistent
// snapshots of a mutating report, an incremental fold cache over disjoint
// parts, and the absolute-state application the delta protocol's client
// side needs. All three rest on the report's entry trie (trie.go), so each
// read costs O(changed state), not O(total state):
//
//   - A shard owns a mutating Report and a SnapshotCache. Merges append the
//     touched entry keys, with the version they will commit at, to a change
//     list and bump a monotonically increasing version. A snapshot request
//     at an unchanged version returns the cached immutable snapshot; an
//     outdated one is the previous snapshot plus one batch that re-clones
//     the listed keys, stamped with their versions, sharing every other
//     trie node. A delta walks only the subtrees stamped after its base.
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

// SnapshotCache tracks a mutating Report's changes so reads can reuse
// prior work. The owner marks every entry key it touches, bumps the
// version once per mutation batch, and serves reads through Snapshot —
// which is free when nothing changed and proportional to the marked keys
// otherwise. Each snapshot's trie leaves carry the version that last
// changed them, so DeltaSince answers "what moved since version v" with a
// walk of the newer subtrees, without diffing state.
//
// A SnapshotCache is owned by the goroutine that owns the Report; it is
// not safe for concurrent use. The *Report values it returns are
// immutable and safe to share across goroutines.
type SnapshotCache struct {
	version uint64
	// changes lists the keys marked since snap was built, each with the
	// version that commits it. Once it outgrows twice the snapshot, it and
	// snap are dropped: the next snapshot is rebuilt in full, every leaf
	// stamped at that version.
	changes []keyChange
	snap    *Report // cached immutable snapshot; nil until built
	snapV   uint64  // version snap covers
}

type keyChange struct {
	key string
	ver uint64
}

// NewSnapshotCache returns an empty cache at version 0.
func NewSnapshotCache() *SnapshotCache { return &SnapshotCache{} }

// Version returns the current state version: 0 until the first Bump, then
// monotonically increasing.
func (sc *SnapshotCache) Version() uint64 { return sc.version }

// MarkKey records that the entry at key is about to change in the batch
// the next Bump commits.
func (sc *SnapshotCache) MarkKey(key string) {
	switch {
	case sc.snap == nil: // the next snapshot is built in full
	case len(sc.changes) >= 2*sc.snap.Len():
		sc.changes, sc.snap = sc.changes[:0], nil
	default:
		sc.changes = append(sc.changes, keyChange{key, sc.version + 1})
	}
}

// MarkReport marks every entry key of frag (the fragment about to merge).
func (sc *SnapshotCache) MarkReport(frag *Report) {
	frag.entries.each(func(l *trieLeaf) { sc.MarkKey(l.key) })
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
// returned as-is. Otherwise the new snapshot is the previous one plus one
// batch that deep-clones each listed key's entry from live, stamped with
// the key's newest mark; every other entry and trie node is shared with
// the previous snapshot. Without a previous snapshot, or after the change
// list overflowed, every entry is cloned. Callers must treat the result
// (and everything reachable from it) as read-only.
func (sc *SnapshotCache) Snapshot(live *Report) *Report {
	if sc.Cached() {
		return sc.snap
	}
	out := &Report{totalHangs: live.totalHangs, Health: live.Health}
	if sc.snap == nil {
		out.entries = live.entries.deepCopy(sc.version)
	} else {
		out.entries = sc.snap.entries.batch()
		// Newest marks first: a key's later duplicates find it stamped
		// after snapV and are skipped, so each changed entry clones once.
		for i := len(sc.changes) - 1; i >= 0; i-- {
			c := sc.changes[i]
			if l := out.entries.leaf(c.key); l != nil && l.ver > sc.snapV {
				continue
			}
			if e := live.entries.get(c.key); e != nil {
				out.entries.bind(c.key, e, nil, c.ver)
			} else {
				out.entries.del(c.key)
			}
		}
	}
	sc.changes = sc.changes[:0]
	sc.snap, sc.snapV = out, sc.version
	return out
}

// DeltaSince returns the current version and an immutable report holding
// the entries changed after version since, with live's full Health
// (health rides every delta — it is absolute, cheap, and saves tracking a
// separate health version). Entries, and the trie leaves binding them,
// are shared with the current snapshot.
// since at or beyond the current version yields an entry-less report.
// After a full rebuild the delta may also carry unchanged entries; their
// absolute states apply idempotently.
func (sc *SnapshotCache) DeltaSince(live *Report, since uint64) (*Report, uint64) {
	snap := sc.Snapshot(live)
	out := &Report{Health: snap.Health}
	snap.entries.changedSince(since, func(l *trieLeaf) {
		out.entries.put(l)
		out.totalHangs += l.e.Hangs
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
	r.totalHangs += part.totalHangs
	part.entries.each(func(l *trieLeaf) {
		if old := r.entries.put(l); old != nil {
			merged, _ := r.entries.bind(l.key, old.e, nil, 0)
			merged.merge(l.e, nil)
		}
	})
}

// FoldReportsShared is FoldReports for immutable parts with (mostly)
// disjoint entry-key sets — the shape of shard snapshots, whose keys are
// routed by ShardIndex. Entries are shared, not deep-copied, so the fold
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
		out.totalHangs += p.totalHangs
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
		if _, old := r.entries.bind(we.Key, &src, we.Devices, 0); old != nil {
			r.totalHangs -= old.Hangs
		}
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
	changed := make([]string, 0, r.entries.n+len(wr.Entries))
	old := r.entries
	r.entries = entryTrie{}
	r.totalHangs = 0
	for i := range wr.Entries {
		we := &wr.Entries[i]
		src := we.entry()
		r.entries.bind(we.Key, &src, we.Devices, 0)
		r.totalHangs += we.Hangs
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
				merged, _ = out.entries.bind(key, e, nil, 0)
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
			out.totalHangs += p.totalHangs
			out.Health.Add(p.Health)
		}
	}
	return out
}
