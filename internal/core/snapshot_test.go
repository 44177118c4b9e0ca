package core

import (
	"bytes"
	"fmt"
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
	hotKey := entryKey(hot.App, hot.ActionUID, hot.RootCause)
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
		switch s2.entries.get(l.key) {
		case l.e:
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

// TestSnapshotCacheDelta pins DeltaSince: entries changed after `since`
// (and only those), the live report's full health, and a hang total that
// sums exactly the included entries.
func TestSnapshotCacheDelta(t *testing.T) {
	live := foldFixture()
	sc := NewSnapshotCache(live)
	sc.Bump()
	_ = sc.Snapshot()
	v1 := sc.Version()

	d, v := sc.DeltaSince(v1)
	if v != v1 || d.Len() != 0 {
		t.Fatalf("delta at the current version: %d entries, version %d (want 0 at %d)", d.Len(), v, v1)
	}
	if d.Health != live.Health {
		t.Error("delta must carry the full absolute health section")
	}

	diag := Diagnosis{RootCause: "com.example.Late.run", File: "Late.java", Line: 8}
	live.Add("app-1", "device-1", "app-1/Action-1", diag, 250*simclock.Millisecond)
	key := entryKey("app-1", "app-1/Action-1", diag.RootCause)
	sc.Bump()

	d, v = sc.DeltaSince(v1)
	if v != v1+1 {
		t.Fatalf("delta version = %d, want %d", v, v1+1)
	}
	if d.Len() != 1 || d.entries.get(key) == nil {
		t.Fatalf("delta holds %d entries, want exactly the changed key", d.Len())
	}
	if d.TotalHangs() != d.entries.get(key).Hangs {
		t.Errorf("delta hang total %d != its entries' sum %d", d.TotalHangs(), d.entries.get(key).Hangs)
	}
	// The fixture's entries predate the cache (stamp 0), so a delta since
	// 0 holds only what changed after it was built.
	if d, _ := sc.DeltaSince(0); d.Len() != 1 {
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
		if live.entries.leaf(l.key) != l {
			t.Fatalf("snapshot and live report hold different leaves for %q", l.key)
		}
	})

	hot := live.Entries()[0]
	key := entryKey(hot.App, hot.ActionUID, hot.RootCause)
	diag := Diagnosis{RootCause: hot.RootCause, File: hot.File, Line: hot.Line}
	live.Add(hot.App, "device-new", hot.ActionUID, diag, 500*simclock.Millisecond)
	written := live.entries.leaf(key)
	live.Add(hot.App, "device-newer", hot.ActionUID, diag, 600*simclock.Millisecond)
	if live.entries.leaf(key) != written {
		t.Error("a second write in the batch copied the leaf again")
	}
	sc.Bump()
	snap.entries.each(func(l *trieLeaf) {
		if copied := live.entries.leaf(l.key) != l; copied != (l.key == key) {
			t.Errorf("%q: copied=%v after a write to %q only", l.key, copied, key)
		}
	})
	if !bytes.Equal(exportBytes(t, snap), before) {
		t.Fatal("a write after the hand-out changed the snapshot")
	}
}

// TestDeltaSinceExact: for every v up to Version(), including versions no
// snapshot was taken at, DeltaSince(v) holds exactly the keys whose last
// change came in a batch after v. Snapshots are rare, so a key changes in
// several batches between two of them and is merged in place after its
// first copy; each of those merges must restamp it.
func TestDeltaSinceExact(t *testing.T) {
	rng := simrand.New(5).Derive("delta-exact")
	const keys, batches = 12, 80
	live := NewReport()
	sc := NewSnapshotCache(live)
	last := map[string]uint64{} // key -> batch that last changed it
	check := func() {
		t.Helper()
		for v := uint64(0); v <= sc.Version(); v++ {
			d, _ := sc.DeltaSince(v)
			want := 0
			for key, at := range last {
				if in := d.entries.get(key) != nil; in != (at > v) {
					t.Fatalf("after batch %d: DeltaSince(%d) holds %q=%v, last changed in batch %d", sc.Version(), v, key, in, at)
				}
				if at > v {
					want++
				}
			}
			if d.Len() != want {
				t.Fatalf("after batch %d: DeltaSince(%d) holds %d entries, want %d", sc.Version(), v, d.Len(), want)
			}
		}
	}
	for b := 1; b <= batches; b++ {
		for i := 0; i < 1+rng.Intn(4); i++ {
			k := rng.Intn(keys)
			action := fmt.Sprintf("app/act-%d", k)
			live.Add("app", fmt.Sprintf("device-%d", rng.Intn(5)), action,
				Diagnosis{RootCause: fmt.Sprintf("c.C%d.m", k), File: "C.java", Line: k}, 100*simclock.Millisecond)
			last[entryKey("app", action, fmt.Sprintf("c.C%d.m", k))] = uint64(b)
		}
		sc.Bump()
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
					live.Health.Add(wr.Health)
					live.MergeWireEntries(wr.Entries)
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
					d, _ := sc.DeltaSince(mirrorV)
					mirror.ApplyWireDelta(wireFrom(t, d))
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
	disjoint := r.Split(4)
	overlapping := []*Report{r.Clone(), foldFixture(), nil, r.Clone()}
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

// TestFoldCacheIncremental: updating only the parts whose version moved
// must equal a from-scratch fold, an unchanged vector must return the
// cached result, and a vector behind the cached one must fold afresh
// without rolling the cache back.
func TestFoldCacheIncremental(t *testing.T) {
	base := foldFixture()
	const shards = 4
	parts := base.Split(shards)
	vers := []uint64{1, 1, 1, 1}
	var fc FoldCache
	r1, hit := fc.Update(parts, vers)
	if hit {
		t.Fatal("first Update reported a cache hit")
	}
	if got, want := exportBytes(t, r1), exportBytes(t, FoldReports(parts...)); !bytes.Equal(got, want) {
		t.Fatal("initial FoldCache.Update diverged from FoldReports")
	}
	if r, hit := fc.Update(parts, []uint64{1, 1, 1, 1}); r != r1 || !hit {
		t.Fatal("an unchanged vector must return the cached fold")
	}

	// Grow the underlying state by one entry and re-split: shard key sets
	// only grow, and exactly one shard moves.
	grown := base.Clone()
	diag := Diagnosis{RootCause: "com.example.Grow.run", File: "Grow.java", Line: 7}
	grown.Add("app-9", "device-g", "app-9/Act", diag, 150*simclock.Millisecond)
	next := grown.Split(shards)
	nextVers := make([]uint64, shards)
	moved := 0
	for i := range next {
		if next[i] == nil && parts[i] != nil {
			t.Fatal("fixture bug: a shard's key set shrank")
		}
		// A shard whose fragment changed at all gets a new version.
		nextVers[i] = vers[i]
		if (next[i] == nil) != (parts[i] == nil) ||
			next[i] != nil && !bytes.Equal(exportBytes(t, next[i]), exportBytes(t, parts[i])) {
			nextVers[i]++
			moved++
		}
	}
	if moved == 0 || moved == shards {
		t.Fatalf("fixture bug: %d of %d shards moved, want a partial move", moved, shards)
	}
	r2, hit := fc.Update(next, nextVers)
	if hit {
		t.Fatal("a moved vector reported a cache hit")
	}
	if got, want := exportBytes(t, r2), exportBytes(t, FoldReports(next...)); !bytes.Equal(got, want) {
		t.Fatal("incremental Update diverged from a from-scratch fold")
	}

	// A gather behind the cache folds its own parts and leaves the cache.
	if r, hit := fc.Update(parts, vers); hit || !bytes.Equal(exportBytes(t, r), exportBytes(t, FoldReports(parts...))) {
		t.Fatal("a stale gather was not folded afresh")
	}
	if r, hit := fc.Update(next, nextVers); r != r2 || !hit {
		t.Fatal("a stale gather rolled the cache back")
	}

	// Part-count change invalidates the structure and rebuilds.
	r3, _ := fc.Update(grown.Split(8), make([]uint64, 8))
	if got, want := exportBytes(t, r3), exportBytes(t, grown); !bytes.Equal(got, want) {
		t.Fatal("rebuild after part-count change diverged")
	}
}

// wireFrom round-trips a report through the canonical binary encoding to
// produce the WireReport a delta-protocol client receives.
func wireFrom(t *testing.T, r *Report) *WireReport {
	t.Helper()
	wr, err := NewBinaryDecoder().Decode(AppendReportBinary(nil, r))
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
		t.Fatalf("full apply reported %d changed keys, want %d", len(changed), live.Len())
	}
	if !bytes.Equal(exportBytes(t, mirror), exportBytes(t, live)) {
		t.Fatal("mirror after full apply does not match upstream")
	}

	diag := Diagnosis{RootCause: "com.example.Delta.run", File: "Delta.java", Line: 2}
	live.Add("app-2", "device-2", "app-2/Action-2", diag, 400*simclock.Millisecond)
	live.Health.StacksDropped++
	sc.Bump()
	d, _ := sc.DeltaSince(v1)
	if changed := mirror.ApplyWireDelta(wireFrom(t, d)); len(changed) != 1 {
		t.Fatalf("delta apply reported %d changed keys, want 1", len(changed))
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
		t.Errorf("shrinking full apply reported %d changed keys, want the old∪new union", len(changed))
	}
}

// TestRefreshKeys: re-deriving the changed keys across parts must equal a
// from-scratch fold, rebuild entries fresh, leave the receiver unchanged
// (so masters handed out earlier stay valid), and delete keys no part
// holds.
func TestRefreshKeys(t *testing.T) {
	a, b := foldFixture(), foldFixture()
	b.Health.PerfOpenFailures = 9
	master := FoldReportsShared(a, b)

	// Replace one entry in part a the way ApplyWireDelta would: fresh
	// pointer, different counters.
	victim := a.Entries()[0]
	key := entryKey(victim.App, victim.ActionUID, victim.RootCause)
	repl := victim.clone()
	repl.Hangs += 5
	repl.Devices["device-refresh"] = true
	a.totalHangs += 5
	a.entries.bind(key, repl, nil)

	before := exportBytes(t, master)
	oldEntry := master.entries.get(key)
	oldHangs := oldEntry.Hangs
	next := master.RefreshKeys([]string{key}, a, b)
	if got, want := exportBytes(t, next), exportBytes(t, FoldReports(a, b)); !bytes.Equal(got, want) {
		t.Fatal("RefreshKeys diverged from a from-scratch fold")
	}
	if next.entries.get(key) == oldEntry {
		t.Error("RefreshKeys reused the old entry instead of rebuilding it")
	}
	if oldEntry.Hangs != oldHangs {
		t.Error("the replaced entry was mutated — shared snapshots would corrupt")
	}
	if !bytes.Equal(exportBytes(t, master), before) {
		t.Error("RefreshKeys changed its receiver")
	}

	// A key held by no part disappears.
	ghost := "no\x00such\x00key"
	next.entries.bind(ghost, victim, nil)
	if next = next.RefreshKeys([]string{ghost}, a, b); next.entries.get(ghost) != nil {
		t.Error("RefreshKeys kept a key no part holds")
	}
}

// TestReadsScaleWithChange is a deterministic guard on the read path's
// cost: with the same 16 keys changing per round, the bytes one read
// round allocates must not grow with the state it reads. It fills a
// report to 1k and to 32k entries and compares one shard delta round
// (merge, Bump, DeltaSince) and one regional round (RefreshKeys over two
// mirrors) at both sizes. A delta round that rebuilds a map of every
// entry allocates about 25x more at 32k than at 1k; copying only the
// changed trie paths stays under 1.5x.
func TestReadsScaleWithChange(t *testing.T) {
	const hot, rounds = 16, 32
	fill := func(app string, n int) *Report {
		r := NewReport()
		for i := 0; i < n; i++ {
			r.Add(app, fmt.Sprintf("device-%d", i%7), fmt.Sprintf("%s/act-%d", app, i%97),
				Diagnosis{RootCause: fmt.Sprintf("c.C%d.m", i), File: "C.java", Line: i}, 200*simclock.Millisecond)
		}
		return r
	}
	hotKeys := func(r *Report) []string {
		var keys []string
		for _, e := range r.Entries()[:hot] {
			keys = append(keys, entryKey(e.App, e.ActionUID, e.RootCause))
		}
		return keys
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
	// bump adds one hang to key's entry through the merge path, which
	// stamps it for DeltaSince.
	bump := func(r *Report, key string) {
		one := r.entries.get(key).empty(0)
		one.Hangs = 1
		r.add(key, one, nil)
	}
	// rebind replaces key's entry with a copy holding one more hang, as
	// ApplyWireDelta replaces a mirror's entries: a fold sharing the old
	// entry keeps it unchanged.
	rebind := func(r *Report, key string) {
		next, _ := r.entries.bind(key, r.entries.get(key), nil)
		next.Hangs++
		r.totalHangs++
	}

	shardDelta := func(n int) float64 {
		live := fill("app", n)
		sc := NewSnapshotCache(live)
		sc.Bump()
		keys := hotKeys(live)
		return bytesPerRound(func() {
			since := sc.Version()
			for _, key := range keys {
				bump(live, key)
			}
			sc.Bump()
			if d, _ := sc.DeltaSince(since); d.Len() != hot {
				t.Fatalf("delta holds %d entries, want %d", d.Len(), hot)
			}
		})
	}
	regional := func(n int) float64 {
		a, b := fill("app", n/2), fill("other", n/2)
		master := FoldReportsShared(a, b)
		keys := hotKeys(a)
		return bytesPerRound(func() {
			for _, key := range keys {
				rebind(a, key)
			}
			if master = master.RefreshKeys(keys, a, b); master.Len() != n {
				t.Fatalf("master holds %d entries, want %d", master.Len(), n)
			}
		})
	}
	for name, round := range map[string]func(int) float64{"DeltaSince": shardDelta, "RefreshKeys": regional} {
		small, large := round(1<<10), round(1<<15)
		t.Logf("%s: %.0f B/round at 1k entries, %.0f B/round at 32k (%.2fx)", name, small, large, large/small)
		if large > 2*small {
			t.Errorf("%s allocates %.1fx more per round at 32k entries than at 1k: reads scale with state", name, large/small)
		}
	}
}
