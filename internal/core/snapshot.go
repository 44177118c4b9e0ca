package core

// snapshot.go is the incremental read path: versioned persistent
// snapshots of a mutating report, the delta and the incremental fold of
// such snapshots over disjoint parts, and the absolute-state application
// the delta protocol's client side needs. All rest on the report's entry
// trie (trie.go), whose leaf stamps are a node's one change tracker, so
// each read costs O(changed state), not O(total state):
//
//   - A shard owns a mutating Report and a SnapshotCache bound to it.
//     Merges stamp every leaf they write with the version their batch
//     commits at, and the cache bumps a monotonically increasing version
//     once per batch (a fleet shard's batch is one upload's run of
//     entries). A snapshot is the live report's trie itself, handed
//     out as it stands; the live report goes on as a new batch over it, so
//     the first write after a hand-out copies the nodes and leaf it
//     touches, and the snapshot never changes. A snapshot request at an
//     unchanged version returns the cached snapshot.
//   - Over the gathered shard snapshots, DeltaSince and FoldCache both walk
//     only the subtrees stamped after a version: DeltaSince after the
//     client's, FoldCache after the one its previous fold covers, whose
//     trie it extends in one batch (with no previous fold, an empty one
//     takes every leaf). Because shards own disjoint sets of entries, both
//     share the snapshots' leaves instead of copying entries.
//   - A regional poller mirrors each node with ApplyWireFull/ApplyWireDelta
//     and re-derives only the changed entries of its fold, which starts
//     empty, with RefreshKeys, which returns a new report sharing structure
//     with the old one.
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
// last changed it, so DeltaSince and FoldCache answer "what moved since
// version v" with a walk of a snapshot's newer subtrees, without diffing
// state.
//
// A SnapshotCache is not safe for concurrent use: its owner serializes
// merges, bumps and snapshots (a fleet shard holds its lock for each). The
// *Report values it returns are immutable and safe to share across
// goroutines.
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

// ---------------------------------------------------------------------------
// Deltas and incremental folds over disjoint parts

// DeltaSince returns an immutable report holding exactly the entries each
// part i stamped after since[i], with the parts' summed Health (health
// rides every delta — it is absolute, cheap, and saves tracking a
// separate health version). Each part is a SnapshotCache snapshot and
// since[i] a version of its cache; the parts hold pairwise-disjoint sets
// of identities, as a node's shards do. One walk of each part's newer
// subtrees puts the leaves it finds into the result, which shares them.
func DeltaSince(parts []*Report, since []uint64) *Report {
	out := &Report{}
	for i, p := range parts {
		out.Health.Add(p.Health)
		p.entries.changedSince(since[i], func(l *trieLeaf) {
			out.entries.put(l)
			out.totalHangs = satAdd(out.totalHangs, l.entry.Hangs)
		})
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

// FoldCache incrementally maintains the fold of an indexed family of
// parts across calls, keyed by the parts' version vector. It requires
// what the sharded aggregator guarantees: part i is always a snapshot of
// the same SnapshotCache at the version given for it, the parts' sets of
// identities are pairwise disjoint, and each part's set only grows as its
// version rises. Under those invariants the fold is byte-identical to
// FoldReports over the same parts.
type FoldCache struct {
	result *Report  // immutable fold of the parts at vers
	vers   []uint64 // part versions result covers
}

// Update returns the fold of parts at versions vers (one per part) and
// whether it is the cached fold, reused because no version moved. Every
// fold is one batch over a base, into which each part puts the leaves
// that fold must take, sharing them. The base is the previous fold, and
// each part puts the leaves it stamped after the version that fold saw it
// at: a walk of its newer subtrees, as in DeltaSince, so this costs the
// changed entries, and each changed path is copied once. With no usable
// previous fold — the first call, a change of part count, or a gather
// behind the cached vector in any part, as when a concurrent reader
// cached a newer one — the base is an empty report and each part puts
// every leaf. A fold from behind is not cached, so the cache only moves
// forward. Totals and health are re-summed from the parts (O(parts), not
// O(entries)). The returned report is immutable.
func (fc *FoldCache) Update(parts []*Report, vers []uint64) (rep *Report, hit bool) {
	base, since := fc.result, fc.vers
	cold := base == nil || len(since) != len(vers)
	moved, behind := cold, false
	for i := 0; !cold && i < len(vers); i++ {
		moved = moved || vers[i] != since[i]
		behind = behind || vers[i] < since[i]
	}
	switch {
	case !moved:
		return base, true
	case cold || behind:
		base, since = &Report{}, nil
	}
	out := &Report{entries: base.entries.batch()}
	put := func(l *trieLeaf) { out.entries.put(l) }
	for i, p := range parts {
		if since == nil {
			p.entries.each(put)
		} else {
			// The part's identities only grow and no other part holds
			// them, so the leaves it changed are all the fold must take.
			p.entries.changedSince(since[i], put)
		}
		out.totalHangs = satAdd(out.totalHangs, p.totalHangs)
		out.Health.Add(p.Health)
	}
	if !behind {
		fc.result, fc.vers = out, vers
	}
	return out, false
}

// ---------------------------------------------------------------------------
// Absolute (delta-protocol) application

// ApplyWireDelta applies a delta-snapshot document to r, which mirrors one
// upstream node's state: each wire entry REPLACES r's entry of the same
// identity with the absolute values carried on the wire (unlike MergeWire,
// which adds them), and r's health is replaced by the document's. It
// returns r's new entries, one per changed identity; they are r's own and
// point into no decoder scratch. This is the client half of the
// /v1/snapshot?since= protocol.
func (r *Report) ApplyWireDelta(wr *WireReport) []*ReportEntry {
	changed := make([]*ReportEntry, 0, len(wr.Entries))
	for i := range wr.Entries {
		we := &wr.Entries[i]
		src := we.entry()
		e, old := r.entries.bind(hashOf(&src), &src, we.Devices)
		if old != nil {
			r.totalHangs -= old.Hangs
		}
		r.totalHangs = satAdd(r.totalHangs, we.Hangs)
		changed = append(changed, e)
	}
	r.Health = wr.Health
	return changed
}

// ApplyWireFull replaces r wholesale with a full-snapshot document: it is
// ApplyWireDelta over an emptied r, so an identity the document repeats
// keeps its last entry, as a delta's would, and r's total counts it once.
// It returns an entry for every identity whose entry may differ
// afterwards: r's new entries, and the old entry of every identity the
// document no longer holds (a restarted upstream may have *lost* entries,
// so stale ones count as changed too).
func (r *Report) ApplyWireFull(wr *WireReport) []*ReportEntry {
	old := r.entries
	r.entries, r.totalHangs = entryTrie{}, 0
	changed := r.ApplyWireDelta(wr)
	old.each(func(l *trieLeaf) {
		if r.entries.root.find(0, l.h, &l.entry) == nil {
			changed = append(changed, &l.entry)
		}
	})
	return changed
}

// RefreshKeys returns r with its entries of the identities of rows
// re-derived as the fold of the corresponding entries across parts, in
// part order, and its totals and health re-summed from the parts; of each
// row only its identity is read. An identity no part holds is deleted.
// One that only one part holds shares that part's leaf, as FoldCache
// does; one that two or more parts hold gets a new leaf of the result
// holding their merge. So parts must not change a leaf the result shares:
// a regional mirror only ever replaces its leaves. The result is one
// batch over r's trie: it shares every unchanged node and entry with r,
// and r itself stays unchanged, so r may already be handed out — the
// regional tier serves each round's result as-is. Byte-identity: after
// refreshing every changed identity, the result equals
// FoldReports(parts...) exactly; an empty r refreshed at every identity
// of the parts is their fold, which is how a regional master starts.
func (r *Report) RefreshKeys(rows []*ReportEntry, parts ...*Report) *Report {
	out := &Report{entries: r.entries.batch()}
	for _, row := range rows {
		h := hashOf(row)
		var held *trieLeaf      // the first part's leaf of row's identity
		var merged *ReportEntry // the fold, once a second part holds it
		for _, p := range parts {
			if p == nil {
				continue
			}
			switch l := p.entries.root.find(0, h, row); {
			case l == nil:
			case held == nil:
				held = l
			case merged == nil:
				merged, _ = out.entries.bind(h, &held.entry, nil)
				fallthrough
			default:
				merged.merge(&l.entry, nil)
			}
		}
		switch {
		case held == nil:
			out.entries.remove(h, row)
		case merged == nil:
			out.entries.put(held)
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
