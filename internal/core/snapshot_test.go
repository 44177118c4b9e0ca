package core

import (
	"bytes"
	"testing"

	"hangdoctor/internal/simclock"
)

// markAll marks every entry key of r dirty in sc (the shape of a merge
// that touched the whole report) and commits the batch.
func markAll(sc *SnapshotCache, r *Report) {
	sc.MarkReport(r)
	sc.Bump()
}

// TestSnapshotCacheCOW pins the copy-on-write contract: an unchanged
// version returns the identical snapshot, a changed version deep-clones
// only the dirtied entries and shares every clean *ReportEntry pointer
// with the previous snapshot — and every snapshot exports byte-identically
// to a deep clone of the live report at that moment.
func TestSnapshotCacheCOW(t *testing.T) {
	live := foldFixture()
	sc := NewSnapshotCache()
	markAll(sc, live)

	s1 := sc.Snapshot(live)
	if got, want := exportBytes(t, s1), exportBytes(t, live.Clone()); !bytes.Equal(got, want) {
		t.Fatal("first snapshot does not match the live report")
	}
	if sc.Snapshot(live) != s1 {
		t.Fatal("unchanged version must return the cached snapshot")
	}
	if !sc.Cached() {
		t.Fatal("Cached() false right after a snapshot build")
	}

	// Mutate one entry and add one new entry; mark exactly those keys.
	diag := Diagnosis{RootCause: "com.example.Fresh.run", File: "Fresh.java", Line: 3}
	live.Add("app-0", "device-9", "app-0/Action-0", diag, 300*simclock.Millisecond)
	sc.MarkKey(entryKey("app-0", "app-0/Action-0", diag.RootCause))
	hot := live.Entries()[0]
	hotKey := entryKey(hot.App, hot.ActionUID, hot.RootCause)
	live.Add(hot.App, "device-new", hot.ActionUID,
		Diagnosis{RootCause: hot.RootCause, File: hot.File, Line: hot.Line, ViaCaller: hot.ViaCaller},
		500*simclock.Millisecond)
	sc.Bump()
	sc.MarkKey(hotKey)
	sc.Bump()
	if sc.Cached() {
		t.Fatal("Cached() true after the version moved")
	}

	s2 := sc.Snapshot(live)
	if got, want := exportBytes(t, s2), exportBytes(t, live.Clone()); !bytes.Equal(got, want) {
		t.Fatal("rebuilt snapshot does not match the live report")
	}
	// Clean entries share structure, the dirtied one does not.
	shared, cloned := 0, 0
	for key, e := range s1.entries {
		switch s2.entries[key] {
		case e:
			shared++
		default:
			cloned++
		}
	}
	if shared == 0 {
		t.Error("no clean entry pointer was shared between consecutive snapshots")
	}
	if s2.entries[hotKey] == s1.entries[hotKey] {
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
	sc := NewSnapshotCache()
	markAll(sc, live)
	_ = sc.Snapshot(live)
	v1 := sc.Version()

	d, v := sc.DeltaSince(live, v1)
	if v != v1 || d.Len() != 0 {
		t.Fatalf("delta at the current version: %d entries, version %d (want 0 at %d)", d.Len(), v, v1)
	}
	if d.Health != live.Health {
		t.Error("delta must carry the full absolute health section")
	}

	diag := Diagnosis{RootCause: "com.example.Late.run", File: "Late.java", Line: 8}
	live.Add("app-1", "device-1", "app-1/Action-1", diag, 250*simclock.Millisecond)
	key := entryKey("app-1", "app-1/Action-1", diag.RootCause)
	sc.MarkKey(key)
	sc.Bump()

	d, v = sc.DeltaSince(live, v1)
	if v != v1+1 {
		t.Fatalf("delta version = %d, want %d", v, v1+1)
	}
	if d.Len() != 1 || d.entries[key] == nil {
		t.Fatalf("delta holds %d entries, want exactly the changed key", d.Len())
	}
	if d.TotalHangs() != d.entries[key].Hangs {
		t.Errorf("delta hang total %d != its entries' sum %d", d.TotalHangs(), d.entries[key].Hangs)
	}
	// since=0 returns everything ever modified.
	d, _ = sc.DeltaSince(live, 0)
	if d.Len() != live.Len() {
		t.Errorf("delta since 0 holds %d entries, want all %d", d.Len(), live.Len())
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
	sc := NewSnapshotCache()
	markAll(sc, live)
	_ = sc.Snapshot(live)
	v1 := sc.Version()

	mirror := NewReport()
	if changed := mirror.ApplyWireFull(wireFrom(t, sc.Snapshot(live))); len(changed) != live.Len() {
		t.Fatalf("full apply reported %d changed keys, want %d", len(changed), live.Len())
	}
	if !bytes.Equal(exportBytes(t, mirror), exportBytes(t, live)) {
		t.Fatal("mirror after full apply does not match upstream")
	}

	diag := Diagnosis{RootCause: "com.example.Delta.run", File: "Delta.java", Line: 2}
	live.Add("app-2", "device-2", "app-2/Action-2", diag, 400*simclock.Millisecond)
	live.Health.StacksDropped++
	sc.MarkKey(entryKey("app-2", "app-2/Action-2", diag.RootCause))
	sc.Bump()
	d, _ := sc.DeltaSince(live, v1)
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
// from-scratch fold, rebuild entries fresh (so shared old snapshots stay
// valid), and delete keys no part holds.
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
	a.entries[key] = repl

	oldEntry := master.entries[key]
	oldHangs := oldEntry.Hangs
	master.RefreshKeys([]string{key}, a, b)
	if got, want := exportBytes(t, master), exportBytes(t, FoldReports(a, b)); !bytes.Equal(got, want) {
		t.Fatal("RefreshKeys diverged from a from-scratch fold")
	}
	if master.entries[key] == oldEntry {
		t.Error("RefreshKeys mutated an entry in place instead of rebuilding it")
	}
	if oldEntry.Hangs != oldHangs {
		t.Error("the replaced entry was mutated — shared snapshots would corrupt")
	}

	// A key held by no part disappears.
	ghost := "no\x00such\x00key"
	master.entries[ghost] = victim.clone()
	master.RefreshKeys([]string{ghost}, a, b)
	if _, ok := master.entries[ghost]; ok {
		t.Error("RefreshKeys kept a key no part holds")
	}
}
