package core

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"runtime"
	"testing"

	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

// TestSnapshotCacheCOW pins the copy-on-write contract: an unchanged
// version returns the identical snapshot, a changed version shares every
// clean *ReportEntry pointer with the previous snapshot and holds its own
// copy of each written one, and every snapshot exports byte-identically
// to the live report at that moment.
func TestSnapshotCacheCOW(t *testing.T) {
	live := foldFixture()
	sc := NewSnapshotCache(live)
	sc.Bump()

	s1 := sc.Snapshot()
	if got, want := exportBytes(t, s1), exportBytes(t, live); !bytes.Equal(got, want) {
		t.Fatal("first snapshot does not match the live report")
	}
	if sc.Snapshot() != s1 {
		t.Fatal("unchanged version must return the cached snapshot")
	}
	if !sc.Cached() {
		t.Fatal("Cached() false right after a snapshot build")
	}

	// Mutate one entry and add one new entry, in two batches.
	diag := Diagnosis{RootCause: "com.example.Fresh.run", File: "Fresh.java", Line: 3}
	live.Add("app-0", "device-9", "app-0/Action-0", diag, 300*simclock.Millisecond)
	hot := live.Entries()[0]
	hotKey := hot.empty()
	sc.Bump()
	live.Add(hot.App, "device-new", hot.ActionUID,
		Diagnosis{RootCause: hot.RootCause, File: hot.File, Line: hot.Line, ViaCaller: hot.ViaCaller},
		500*simclock.Millisecond)
	sc.Bump()
	if sc.Cached() {
		t.Fatal("Cached() true after the version moved")
	}

	s2 := sc.Snapshot()
	if got, want := exportBytes(t, s2), exportBytes(t, live); !bytes.Equal(got, want) {
		t.Fatal("new snapshot does not match the live report")
	}
	// Clean entries share structure, the dirtied one does not.
	shared, cloned := 0, 0
	s1.entries.each(func(l *trieLeaf) {
		switch s2.entries.get(&l.entry) {
		case &l.entry:
			shared++
		default:
			cloned++
		}
	})
	if shared == 0 {
		t.Error("no clean entry pointer was shared between consecutive snapshots")
	}
	if s2.entries.get(hotKey) == s1.entries.get(hotKey) {
		t.Error("dirtied entry pointer was shared — the old snapshot would see new data")
	}
	// The first snapshot is immutable: its bytes must not have moved.
	if s1.Len() == live.Len() {
		t.Error("new entry leaked into the previous snapshot")
	}
}

// deltaOf is DeltaSince over the one part sc's snapshot is.
func deltaOf(sc *SnapshotCache, since uint64) *Report {
	return DeltaSince([]*Report{sc.Snapshot()}, []uint64{since})
}

// TestSnapshotCacheDelta pins DeltaSince of a snapshot: entries changed
// after `since` (and only those), the snapshot's full health, a hang total
// that sums exactly the included entries, and leaves shared with the
// snapshot.
func TestSnapshotCacheDelta(t *testing.T) {
	live := foldFixture()
	sc := NewSnapshotCache(live)
	sc.Bump()
	v1 := sc.Version()

	if d := deltaOf(sc, v1); d.Len() != 0 || d.TotalHangs() != 0 {
		t.Fatalf("delta at the current version holds %d entries, %d hangs", d.Len(), d.TotalHangs())
	} else if d.Health != live.Health {
		t.Error("delta must carry the full absolute health section")
	}

	diag := Diagnosis{RootCause: "com.example.Late.run", File: "Late.java", Line: 8}
	live.Add("app-1", "device-1", "app-1/Action-1", diag, 250*simclock.Millisecond)
	key := rowOf("app-1", "app-1/Action-1", diag.RootCause)
	sc.Bump()

	d := deltaOf(sc, v1)
	if d.Len() != 1 || d.entries.get(key) == nil {
		t.Fatalf("delta holds %d entries, want exactly the changed one", d.Len())
	}
	if d.TotalHangs() != d.entries.get(key).Hangs {
		t.Errorf("delta hang total %d != its entries' sum %d", d.TotalHangs(), d.entries.get(key).Hangs)
	}
	if d.entries.leaf(key) != sc.Snapshot().entries.leaf(key) {
		t.Error("the delta copied a leaf instead of sharing the snapshot's")
	}
	// The fixture's entries predate the cache (stamp 0), so a delta since
	// 0 holds only what changed after it was built.
	if d := deltaOf(sc, 0); d.Len() != 1 {
		t.Errorf("delta since 0 holds %d entries, want the 1 changed since the cache began", d.Len())
	}
}

// TestSnapshotSharesLiveReport: a snapshot is the live report's trie as it
// stands, so right after Snapshot the two share every leaf. The next write
// copies exactly the leaf it writes, a second write in the same batch
// reuses that copy, and the snapshot keeps its bytes.
func TestSnapshotSharesLiveReport(t *testing.T) {
	live := foldFixture()
	sc := NewSnapshotCache(live)
	sc.Bump()
	snap := sc.Snapshot()
	before := exportBytes(t, snap)
	snap.entries.each(func(l *trieLeaf) {
		if live.entries.leaf(&l.entry) != l {
			t.Fatalf("snapshot and live report hold different leaves for %v", keyOf(&l.entry))
		}
	})

	hot := live.Entries()[0]
	key := hot.empty()
	diag := Diagnosis{RootCause: hot.RootCause, File: hot.File, Line: hot.Line}
	live.Add(hot.App, "device-new", hot.ActionUID, diag, 500*simclock.Millisecond)
	written := live.entries.leaf(key)
	live.Add(hot.App, "device-newer", hot.ActionUID, diag, 600*simclock.Millisecond)
	if live.entries.leaf(key) != written {
		t.Error("a second write in the batch copied the leaf again")
	}
	sc.Bump()
	snap.entries.each(func(l *trieLeaf) {
		if copied := live.entries.leaf(&l.entry) != l; copied != l.entry.sameID(key) {
			t.Errorf("%v: copied=%v after a write to %v only", keyOf(&l.entry), copied, keyOf(key))
		}
	})
	if !bytes.Equal(exportBytes(t, snap), before) {
		t.Fatal("a write after the hand-out changed the snapshot")
	}
}

// TestDeltaSinceExact drives three shards the way a node does: each
// batch of adds is routed by WireReport.Runs, and only the shards it reached
// commit a batch. For the version vector after every earlier batch b,
// including vectors no snapshot was taken at, DeltaSince over the shards'
// snapshots holds exactly the entries whose last change came after batch
// b, with the shards' summed health and the included entries' hang sum.
// Snapshots are rare, so an entry changes in several batches between two
// of them and is merged in place after its first copy; each of those
// merges must restamp it.
func TestDeltaSinceExact(t *testing.T) {
	rng := simrand.New(5).Derive("delta-exact")
	const shards, keys, batches = 3, 24, 80
	lives := make([]*Report, shards)
	caches := make([]*SnapshotCache, shards)
	for i := range lives {
		lives[i] = NewReport()
		caches[i] = NewSnapshotCache(lives[i])
	}
	last := map[rowKey]int{}                   // identity -> batch that last changed it
	vecs := [][]uint64{make([]uint64, shards)} // the shards' versions after each batch
	check := func() {
		t.Helper()
		parts := make([]*Report, shards)
		var health Health
		for i, sc := range caches {
			parts[i] = sc.Snapshot()
			health.Add(parts[i].Health)
		}
		for b, since := range vecs {
			d := DeltaSince(parts, since)
			want, hangs := 0, 0
			for key, at := range last {
				e := d.entries.get(rowOf(key.app, key.action, key.root))
				if in := e != nil; in != (at > b) {
					t.Fatalf("after batch %d: delta since batch %d holds %v=%v, last changed in batch %d", len(vecs)-1, b, key, in, at)
				}
				if e != nil {
					want, hangs = want+1, hangs+e.Hangs
				}
			}
			if d.Len() != want || d.TotalHangs() != hangs || d.Health != health {
				t.Fatalf("after batch %d: delta since batch %d holds %d entries, %d hangs, health %+v; want %d, %d, %+v",
					len(vecs)-1, b, d.Len(), d.TotalHangs(), d.Health, want, hangs, health)
			}
		}
	}
	for b := 1; b <= batches; b++ {
		moved := make([]bool, shards)
		for i := 0; i < 1+rng.Intn(4); i++ {
			k := rng.Intn(keys)
			action := fmt.Sprintf("app/act-%d", k)
			root := fmt.Sprintf("c.C%d.m", k)
			s := shardOf("app", action, root, shards)
			lives[s].Add("app", fmt.Sprintf("device-%d", rng.Intn(5)), action,
				Diagnosis{RootCause: root, File: "C.java", Line: k}, 100*simclock.Millisecond)
			lives[s].Health.StacksDropped++
			last[rowKey{"app", action, root}] = b
			moved[s] = true
		}
		vec := make([]uint64, shards)
		for i, sc := range caches {
			if moved[i] {
				sc.Bump()
			}
			vec[i] = sc.Version()
		}
		vecs = append(vecs, vec)
		if rng.Intn(10) == 0 {
			check()
		}
	}
	check()
}

// TestSnapshotRandomBatches drives a live report through random batches of
// fragment and wire merges, with snapshots and delta polls at random
// points. Every handed-out snapshot must keep the bytes it had when handed
// out, a mirror fed by ApplyWireFull and ApplyWireDelta must converge to
// the live report, and the live report must equal FoldReports of every
// input merged so far.
func TestSnapshotRandomBatches(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := simrand.New(seed).Derive("snapshot-batches")
		live := NewReport()
		sc := NewSnapshotCache(live)
		var inputs []*Report
		type handed struct {
			snap  *Report
			bytes []byte
		}
		var snaps []handed
		mirror, mirrorV := NewReport(), uint64(0)
		for b := 0; b < 60; b++ {
			for i := 0; i < 1+rng.Intn(3); i++ {
				frag := NewReport()
				for j := 0; j < 1+rng.Intn(5); j++ {
					k := rng.Intn(16)
					frag.Add(fmt.Sprintf("app-%d", k%3), fmt.Sprintf("device-%d", rng.Intn(6)), fmt.Sprintf("act-%d", k%5),
						Diagnosis{RootCause: fmt.Sprintf("c.C%d.m", k), File: "C.java", Line: 1 + rng.Intn(9)},
						simclock.Duration(1+rng.Intn(900))*simclock.Millisecond)
				}
				frag.Health.StacksDropped = rng.Intn(2)
				inputs = append(inputs, frag)
				if rng.Intn(2) == 0 {
					live.Merge(frag)
				} else {
					wr := wireFrom(t, frag)
					live.MergeWire(wr)
				}
			}
			sc.Bump()
			switch rng.Intn(6) {
			case 0:
				s := sc.Snapshot()
				snaps = append(snaps, handed{s, exportBytes(t, s)})
			case 1:
				if mirrorV == 0 || rng.Intn(4) == 0 {
					mirror.ApplyWireFull(wireFrom(t, sc.Snapshot()))
				} else {
					mirror.ApplyWireDelta(wireFrom(t, deltaOf(sc, mirrorV)))
				}
				mirrorV = sc.Version()
				if !bytes.Equal(exportBytes(t, mirror), exportBytes(t, live)) {
					t.Fatalf("seed %d batch %d: mirror diverged from the live report", seed, b)
				}
			}
		}
		for i, h := range snaps {
			if !bytes.Equal(exportBytes(t, h.snap), h.bytes) {
				t.Fatalf("seed %d: snapshot %d changed after it was handed out", seed, i)
			}
		}
		if !bytes.Equal(exportBytes(t, live), exportBytes(t, FoldReports(inputs...))) {
			t.Fatalf("seed %d: live report diverged from FoldReports of its inputs", seed)
		}
	}
}

// TestFoldReportsSharedByteIdentical: the pointer-sharing fold must match
// FoldReports byte-for-byte for disjoint and overlapping parts alike, and
// must never mutate its inputs.
func TestFoldReportsSharedByteIdentical(t *testing.T) {
	r := foldFixture()
	disjoint := shardParts(r.Wire(), 4)
	overlapping := []*Report{FoldReports(r), foldFixture(), nil, FoldReports(r)}
	for name, parts := range map[string][]*Report{"disjoint": disjoint, "overlapping": overlapping} {
		before := make([][]byte, len(parts))
		for i, p := range parts {
			if p != nil {
				before[i] = exportBytes(t, p)
			}
		}
		want := exportBytes(t, FoldReports(parts...))
		got := exportBytes(t, FoldReportsShared(parts...))
		if !bytes.Equal(got, want) {
			t.Errorf("%s: FoldReportsShared diverged from FoldReports", name)
		}
		for i, p := range parts {
			if p != nil && !bytes.Equal(exportBytes(t, p), before[i]) {
				t.Errorf("%s: part %d was mutated by the fold", name, i)
			}
		}
	}
}

// TestFoldCacheIncremental folds four shards that merge in batches under
// a SnapshotCache each, as a node's do. Rounds add new identities and
// merge into held ones, several rounds may pass between two folds, and a
// round reaches only some shards. After every fold, updating only the
// parts whose version moved must equal a from-scratch fold; an unchanged
// vector must return the cached result; a vector behind the cached one
// must fold afresh without rolling the cache back; and a change of part
// count rebuilds.
func TestFoldCacheIncremental(t *testing.T) {
	const shards = 4
	lives := make([]*Report, shards)
	caches := make([]*SnapshotCache, shards)
	for i := range lives {
		lives[i] = NewReport()
		caches[i] = NewSnapshotCache(lives[i])
	}
	// merge routes r's entries onto the shards and its health onto shard
	// 0; each shard it reached commits one batch.
	merge := func(r *Report) {
		for i, p := range shardParts(r.Wire(), shards) {
			if p != nil {
				lives[i].Merge(p)
				caches[i].Bump()
			}
		}
	}
	gather := func() ([]*Report, []uint64) {
		parts, vers := make([]*Report, shards), make([]uint64, shards)
		for i, sc := range caches {
			parts[i], vers[i] = sc.Snapshot(), sc.Version()
		}
		return parts, vers
	}
	merge(foldFixture())
	parts, vers := gather()
	var fc FoldCache
	r, hit := fc.Update(parts, vers)
	if hit {
		t.Fatal("first Update reported a cache hit")
	}
	if got, want := exportBytes(t, r), exportBytes(t, FoldReports(parts...)); !bytes.Equal(got, want) {
		t.Fatal("initial FoldCache.Update diverged from FoldReports")
	}

	rng := simrand.New(3).Derive("fold-cache")
	held := r.Entries()
	partial := false
	for round := 0; round < 60; round++ {
		up := NewReport()
		for j := 0; j < rng.Intn(3); j++ {
			if e := held[rng.Intn(len(held))]; rng.Intn(2) == 0 {
				up.Add(e.App, fmt.Sprintf("device-%d", rng.Intn(12)), e.ActionUID,
					Diagnosis{RootCause: e.RootCause, File: e.File, Line: e.Line, ViaCaller: e.ViaCaller},
					simclock.Duration(100+rng.Intn(900))*simclock.Millisecond)
			} else {
				up.Add("app-9", "device-g", fmt.Sprintf("app-9/Act-%d", round),
					Diagnosis{RootCause: fmt.Sprintf("com.example.Grow%d.run", j), File: "Grow.java", Line: 7},
					150*simclock.Millisecond)
			}
		}
		up.Health.StacksDropped = rng.Intn(2)
		merge(up)
		if rng.Intn(3) == 0 {
			continue // another round before the next fold
		}
		prev, prevVers := parts, vers
		parts, vers = gather()
		moved := 0
		for i := range vers {
			if vers[i] != prevVers[i] {
				moved++
			}
		}
		partial = partial || moved > 0 && moved < shards
		next, hit := fc.Update(parts, vers)
		switch {
		case hit != (moved == 0):
			t.Fatalf("round %d: %d of %d shards moved, cache hit %v", round, moved, shards, hit)
		case hit && next != r:
			t.Fatalf("round %d: an unchanged vector did not return the cached fold", round)
		}
		if got, want := exportBytes(t, next), exportBytes(t, FoldReports(parts...)); !bytes.Equal(got, want) {
			t.Fatalf("round %d: incremental Update diverged from a from-scratch fold", round)
		}
		if moved > 0 {
			// A gather behind the cache folds its own parts and leaves the
			// cache as it was.
			if old, hit := fc.Update(prev, prevVers); hit || !bytes.Equal(exportBytes(t, old), exportBytes(t, FoldReports(prev...))) {
				t.Fatalf("round %d: a stale gather was not folded afresh", round)
			}
			if again, hit := fc.Update(parts, vers); again != next || !hit {
				t.Fatalf("round %d: a stale gather rolled the cache back", round)
			}
		}
		r = next
	}
	if !partial {
		t.Fatal("fixture bug: no fold saw some but not all shards move")
	}

	// Part-count change invalidates the structure and rebuilds.
	one := NewSnapshotCache(FoldReports(parts...))
	one.Bump()
	r3, _ := fc.Update([]*Report{one.Snapshot()}, []uint64{one.Version()})
	if got, want := exportBytes(t, r3), exportBytes(t, FoldReports(parts...)); !bytes.Equal(got, want) {
		t.Fatal("rebuild after part-count change diverged")
	}
}

// wireFrom round-trips a report through the canonical binary encoding to
// produce the WireReport a delta-protocol client receives.
func wireFrom(t *testing.T, r *Report) *WireReport {
	t.Helper()
	wr, err := decodeNew(NewBinaryDecoder(), AppendReportBinary(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	return wr
}

// TestApplyWireFullAndDelta drives the client half of the delta protocol
// against a SnapshotCache-produced delta: full apply mirrors the upstream,
// a delta apply converges the mirror to the upstream's new state, and a
// full apply after upstream data loss shrinks the mirror.
func TestApplyWireFullAndDelta(t *testing.T) {
	live := foldFixture()
	sc := NewSnapshotCache(live)
	sc.Bump()
	v1 := sc.Version()

	mirror := NewReport()
	if changed := mirror.ApplyWireFull(wireFrom(t, sc.Snapshot())); len(changed) != live.Len() {
		t.Fatalf("full apply reported %d changed entries, want %d", len(changed), live.Len())
	}
	if !bytes.Equal(exportBytes(t, mirror), exportBytes(t, live)) {
		t.Fatal("mirror after full apply does not match upstream")
	}

	diag := Diagnosis{RootCause: "com.example.Delta.run", File: "Delta.java", Line: 2}
	live.Add("app-2", "device-2", "app-2/Action-2", diag, 400*simclock.Millisecond)
	live.Health.StacksDropped++
	sc.Bump()
	if changed := mirror.ApplyWireDelta(wireFrom(t, deltaOf(sc, v1))); len(changed) != 1 || changed[0] != mirror.entries.get(rowOf("app-2", "app-2/Action-2", diag.RootCause)) {
		t.Fatalf("delta apply reported %d changed entries, want the mirror's new entry alone", len(changed))
	}
	if !bytes.Equal(exportBytes(t, mirror), exportBytes(t, live)) {
		t.Fatal("mirror after delta apply does not match upstream")
	}

	// Upstream restart with less data: a full apply must also *remove*.
	small := NewReport()
	small.Add("app-0", "dev", "app-0/Act", Diagnosis{RootCause: "com.example.Only.run", File: "O.java", Line: 1}, 200*simclock.Millisecond)
	changed := mirror.ApplyWireFull(wireFrom(t, small))
	if !bytes.Equal(exportBytes(t, mirror), exportBytes(t, small)) {
		t.Fatal("mirror after shrinking full apply does not match upstream")
	}
	if len(changed) < live.Len() {
		t.Errorf("shrinking full apply reported %d changed entries, want the old∪new union", len(changed))
	}
}

// TestApplyWireFullRepeatedIdentity: a full document that holds one
// identity twice, which only a faulty node sends, leaves a mirror as a
// delta of the same document does: the last entry, counted once in the
// mirror's total. Identities the document drops are still reported.
func TestApplyWireFullRepeatedIdentity(t *testing.T) {
	entry := func(hangs int, device string) WireEntry {
		return WireEntry{App: "app", ActionUID: "app/act", RootCause: "c.C.m", File: "C.java", Line: 4,
			Hangs: hangs, Devices: []string{device},
			MaxResponse: 300 * simclock.Millisecond, SumResponse: simclock.Duration(hangs) * 300 * simclock.Millisecond}
	}
	doc := &WireReport{Entries: []WireEntry{entry(3, "device-1"), entry(5, "device-2")}}
	full, delta := foldFixture(), NewReport()
	dropped := full.Len()
	changed := full.ApplyWireFull(doc)
	delta.ApplyWireDelta(doc)
	if full.Len() != 1 || full.TotalHangs() != 5 {
		t.Fatalf("full apply holds %d entries and %d hangs, want 1 entry of 5 hangs", full.Len(), full.TotalHangs())
	}
	if !bytes.Equal(exportBytes(t, full), exportBytes(t, delta)) {
		t.Fatal("full apply of a document repeating an identity differs from its delta apply")
	}
	if len(changed) < 1+dropped {
		t.Errorf("full apply reported %d changed entries, want the new one and the %d dropped", len(changed), dropped)
	}
}

// TestRefreshKeys: re-deriving the changed entries across parts must
// equal a from-scratch fold, build a new leaf for an identity several
// parts hold and share the leaf of one that one part holds, leave the
// receiver unchanged (so masters handed out earlier stay valid), and
// delete identities no part holds.
func TestRefreshKeys(t *testing.T) {
	a, b := foldFixture(), foldFixture()
	b.Health.PerfOpenFailures = 9
	master := FoldReportsShared(a, b)

	// Replace one entry in part a the way ApplyWireDelta would: fresh
	// pointer, different counters.
	victim := a.Entries()[0]
	key := victim.empty()
	repl := victim.clone()
	repl.Hangs += 5
	repl.Devices = repl.Devices.with([]string{"device-refresh"})
	a.totalHangs += 5
	a.entries.bind(hashOf(repl), repl, nil)

	before := exportBytes(t, master)
	oldEntry := master.entries.get(key)
	oldHangs := oldEntry.Hangs
	next := master.RefreshKeys([]*ReportEntry{key}, a, b)
	if got, want := exportBytes(t, next), exportBytes(t, FoldReports(a, b)); !bytes.Equal(got, want) {
		t.Fatal("RefreshKeys diverged from a from-scratch fold")
	}
	if next.entries.get(key) == oldEntry {
		t.Error("RefreshKeys reused the old entry instead of rebuilding it")
	}
	if l := next.entries.leaf(key); l == a.entries.leaf(key) || l == b.entries.leaf(key) {
		t.Error("a key two parts hold shares a part's leaf instead of a new one")
	}
	if oldEntry.Hangs != oldHangs {
		t.Error("the replaced entry was mutated — shared snapshots would corrupt")
	}
	if !bytes.Equal(exportBytes(t, master), before) {
		t.Error("RefreshKeys changed its receiver")
	}

	// An identity only part a holds shares a's leaf.
	solo := victim.clone()
	solo.RootCause = "com.example.Solo.run"
	a.entries.bind(hashOf(solo), solo, nil)
	a.totalHangs += solo.Hangs
	if next = next.RefreshKeys([]*ReportEntry{solo}, a, b); next.entries.leaf(solo) != a.entries.leaf(solo) {
		t.Error("an identity one part holds does not share that part's leaf")
	}
	if got, want := exportBytes(t, next), exportBytes(t, FoldReports(a, b)); !bytes.Equal(got, want) {
		t.Fatal("RefreshKeys of a one-part identity diverged from a from-scratch fold")
	}

	// An identity held by no part disappears.
	ghost := rowOf("no", "such", "identity")
	next.entries.bind(hashOf(ghost), ghost, nil)
	if next = next.RefreshKeys([]*ReportEntry{ghost}, a, b); next.entries.get(ghost) != nil {
		t.Error("RefreshKeys kept an identity no part holds")
	}
}

// TestReadsScaleWithChange is a guard on the read path's cost: with the
// same 16 entries changing per round, the bytes one read round allocates
// must not grow with the state it reads. It fills a report to 1k and to
// 32k entries and compares one shard delta round (merge, Bump,
// DeltaSince) and one regional round (RefreshKeys over two mirrors) at
// both sizes. A delta round that rebuilds a map of every entry allocates
// about 25x more at 32k than at 1k; copying only the changed trie paths
// stays under 2x. The trie's shape, and so the length of the paths a
// round copies, follows the hash seed, so the bar holds the sums over
// several seeds.
func TestReadsScaleWithChange(t *testing.T) {
	const hot, rounds, seeds = 16, 32, 6
	fill := func(app string, n int) *Report {
		r := NewReport()
		for i := 0; i < n; i++ {
			r.Add(app, fmt.Sprintf("device-%d", i%7), fmt.Sprintf("%s/act-%d", app, i%97),
				Diagnosis{RootCause: fmt.Sprintf("c.C%d.m", i), File: "C.java", Line: i}, 200*simclock.Millisecond)
		}
		return r
	}
	bytesPerRound := func(round func()) float64 {
		round()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	// bump adds one hang to id's entry through the merge path, which
	// stamps it for DeltaSince.
	bump := func(r *Report, id *ReportEntry) {
		one := r.entries.get(id).empty()
		one.Hangs = 1
		r.add(hashOf(one), one, nil)
	}
	// rebind replaces id's entry with a copy holding one more hang, as
	// ApplyWireDelta replaces a mirror's entries: a fold sharing the old
	// entry keeps it unchanged.
	rebind := func(r *Report, id *ReportEntry) {
		next, _ := r.entries.bind(hashOf(id), r.entries.get(id), nil)
		next.Hangs++
		r.totalHangs++
	}

	shardDelta := func(n int) float64 {
		live := fill("app", n)
		sc := NewSnapshotCache(live)
		sc.Bump()
		rows := live.Entries()[:hot]
		return bytesPerRound(func() {
			since := sc.Version()
			for _, id := range rows {
				bump(live, id)
			}
			sc.Bump()
			if d := deltaOf(sc, since); d.Len() != hot {
				t.Fatalf("delta holds %d entries, want %d", d.Len(), hot)
			}
		})
	}
	regional := func(n int) float64 {
		a, b := fill("app", n/2), fill("other", n/2)
		master := FoldReportsShared(a, b)
		rows := a.Entries()[:hot]
		return bytesPerRound(func() {
			for _, id := range rows {
				rebind(a, id)
			}
			if master = master.RefreshKeys(rows, a, b); master.Len() != n {
				t.Fatalf("master holds %d entries, want %d", master.Len(), n)
			}
		})
	}
	defer func(seed maphash.Seed) { trieSeed = seed }(trieSeed)
	for name, round := range map[string]func(int) float64{"DeltaSince": shardDelta, "RefreshKeys": regional} {
		var small, large float64
		for i := 0; i < seeds; i++ {
			trieSeed = maphash.MakeSeed()
			small += round(1 << 10)
			large += round(1 << 15)
		}
		t.Logf("%s: %.0f B/round at 1k entries, %.0f B/round at 32k (%.2fx), means over %d seeds", name, small/seeds, large/seeds, large/small, seeds)
		if large > 2*small {
			t.Errorf("%s allocates %.2fx more per round at 32k entries than at 1k: reads scale with state", name, large/small)
		}
	}
}
