package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

// nonCanonicalJSON holds one identity in two entries whose device lists
// are out of order and repeat a device, and a second identity that lists
// one device twice. Both decoders accept lists in any order.
const nonCanonicalJSON = `{"version":1,"entries":[` +
	`{"app":"A","action_uid":"A/act","root_cause":"x.Y.m","file":"Y.java","line":2,"hangs":2,"devices":["d3","d1","d3"],"max_response_ns":5,"sum_response_ns":9},` +
	`{"app":"A","action_uid":"A/act","root_cause":"x.Y.m","file":"Y.java","line":2,"hangs":4,"devices":["d2","d1"],"max_response_ns":7,"sum_response_ns":20},` +
	`{"app":"A","action_uid":"A/b","root_cause":"z.W.n","file":"W.java","line":8,"hangs":1,"devices":["d9","d9"],"max_response_ns":3,"sum_response_ns":3}]}`

// canonicalJSON is nonCanonicalJSON with one entry per identity and every
// device list sorted and without repeats.
const canonicalJSON = `{"version":1,"entries":[` +
	`{"app":"A","action_uid":"A/act","root_cause":"x.Y.m","file":"Y.java","line":2,"hangs":6,"devices":["d1","d2","d3"],"max_response_ns":7,"sum_response_ns":29},` +
	`{"app":"A","action_uid":"A/b","root_cause":"z.W.n","file":"W.java","line":8,"hangs":1,"devices":["d9"],"max_response_ns":3,"sum_response_ns":3}]}`

// nonCanonicalBinary is nonCanonicalJSON as a hand-written binary document,
// with its device refs in the same order and repeats.
func nonCanonicalBinary() []byte {
	var w DocWriter
	w.Begin("", 0, []string{"A", "A/act", "x.Y.m", "Y.java", "d3", "d1", "d2", "A/b", "z.W.n", "W.java", "d9"}, 3)
	w.Entry(1, 2, 3, 4, 2, false, 2, []uint32{5, 6, 5}, 5, 9)
	w.Entry(1, 2, 3, 4, 2, false, 4, []uint32{7, 6}, 7, 20)
	w.Entry(1, 8, 9, 10, 8, false, 1, []uint32{11, 11}, 3, 3)
	return w.Finish()
}

// TestDeviceSetNormalisesImports: device lists in any order, with repeats,
// import to the sets of their canonical form, and re-export in both
// formats byte-identically to it.
func TestDeviceSetNormalisesImports(t *testing.T) {
	canon, err := ImportReport(strings.NewReader(canonicalJSON))
	if err != nil {
		t.Fatal(err)
	}
	if got := canon.entries.get(rowOf("A", "A/act", "x.Y.m")).Devices.ids; !slices.Equal(got, []string{"d1", "d2", "d3"}) {
		t.Fatalf("canonical entry holds devices %q", got)
	}
	fromJSON, err := ImportReport(strings.NewReader(nonCanonicalJSON))
	if err != nil {
		t.Fatal(err)
	}
	wr, err := decodeNew(NewBinaryDecoder(), nonCanonicalBinary())
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Report{"JSON": fromJSON, "binary": wr.Report()} {
		if !reflect.DeepEqual(r, canon) {
			t.Errorf("%s import differs from its canonical form:\n%s\nwant\n%s", name, r.Render(), canon.Render())
		}
		if !bytes.Equal(exportJSON(t, r), exportJSON(t, canon)) {
			t.Errorf("%s import re-exports JSON differently from its canonical form", name)
		}
		if !bytes.Equal(AppendReportBinary(nil, r), AppendReportBinary(nil, canon)) {
			t.Errorf("%s import re-encodes differently from its canonical form", name)
		}
	}
}

// TestDeviceSetCopyOnWrite: a device merged into a shard's live report
// after a hand-out builds a new set, so the snapshot, a wire view taken
// before the merge and a shared fold of the snapshot keep the old one.
func TestDeviceSetCopyOnWrite(t *testing.T) {
	diag := Diagnosis{RootCause: "x.Y.m", File: "Y.java", Line: 2}
	key := rowOf("A", "A/act", diag.RootCause)
	live := NewReport()
	for _, dev := range []string{"d1", "d3"} {
		live.Add("A", dev, "A/act", diag, simclock.Second)
	}
	sc := NewSnapshotCache(live)
	sc.Bump()
	snap := sc.Snapshot()
	view := live.Wire()
	other := NewReport()
	other.Add("B", "d7", "B/act", diag, simclock.Second)
	fold := refreshAll(snap, other)

	// One device lands inside the set and one before it, through both
	// merge paths.
	live.Add("A", "d2", "A/act", diag, simclock.Second)
	live.MergeWire(&WireReport{Entries: []WireEntry{{App: "A", ActionUID: "A/act", RootCause: diag.RootCause, Hangs: 1, Devices: []string{"d0"}}}})
	sc.Bump()
	if got := live.entries.get(key).Devices.ids; !slices.Equal(got, []string{"d0", "d1", "d2", "d3"}) {
		t.Fatalf("live entry holds devices %q", got)
	}
	want := []string{"d1", "d3"}
	for name, got := range map[string][]string{
		"snapshot":    snap.entries.get(key).Devices.ids,
		"wire view":   view.Entries[0].Devices,
		"shared fold": fold.entries.get(key).Devices.ids,
	} {
		if !slices.Equal(got, want) {
			t.Errorf("%s holds devices %q after the live merge, want %q", name, got, want)
		}
	}
}

// TestCausalChainCopyOnWrite: an entry without a chain holds nil, and a
// chain, like a device set, never changes once built: merging an equal
// chain keeps the entry's pointer and allocates nothing, a clone shares
// it, a different chain merged into a shard's live report after a
// hand-out is a new chain, so the snapshot keeps the old one, and a
// chain merged from a decoded view is the report's own copy.
func TestCausalChainCopyOnWrite(t *testing.T) {
	diag := Diagnosis{RootCause: "x.Y.m", File: "Y.java", Line: 2}
	key := rowOf("A", "A/act", diag.RootCause)

	plain := NewReport()
	plain.Add("A", "d1", "A/act", diag, simclock.Second)
	plain.AddChained("A", "d2", "A/act", diag, CausalChain{}, simclock.Second)
	imported, err := ImportReport(bytes.NewReader(exportJSON(t, plain)))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Report{"Add": plain, "JSON import": imported, "binary decode": decodeBinary(t, plain).Report()} {
		if c := r.entries.get(key).Chain; c != nil {
			t.Errorf("%s: a chainless entry holds the chain %+v, want nil", name, *c)
		}
	}

	chain := CausalChain{Kind: "submit", OriginAction: "A/open", OriginSite: "x.Task.run", SharePermille: 500}
	live, other := NewReport(), NewReport()
	for _, r := range []*Report{live, other} {
		r.AddChained("A", "d1", "A/act", diag, chain, simclock.Second)
	}
	e, src := live.entries.get(key), other.entries.get(key)
	held := e.Chain
	if src.Chain == held {
		t.Fatal("two reports built apart share one chain")
	}
	if n := testing.AllocsPerRun(100, func() { e.merge(src, nil) }); n != 0 || e.Chain != held {
		t.Errorf("merging an equal chain allocates %v objects and keeps the entry's chain: %v, want 0 and true", n, e.Chain == held)
	}
	if e.clone().Chain != held {
		t.Error("a clone does not share its source's chain")
	}

	sc := NewSnapshotCache(live)
	sc.Bump()
	snap := sc.Snapshot()
	post := CausalChain{Kind: "post", SharePermille: 900}
	live.AddChained("A", "d2", "A/act", diag, post, simclock.Second)
	sc.Bump()
	if got := snap.entries.get(key).Chain; got != held || *got != chain {
		t.Errorf("the snapshot's chain is %+v after a live merge, want %+v", *got, chain)
	}
	if got, want := live.entries.get(key).Chain, mergeChain(chain, post); got == held || *got != want {
		t.Errorf("the live entry holds the chain %+v (shared with the snapshot: %v), want a new %+v", *got, got == held, want)
	}

	// The next document decoded into a view does not reach a chain merged
	// from it.
	enc, dec := NewBinaryEncoder("d1"), NewBinaryDecoder()
	var view WireReport
	if err := dec.Decode(enc.Encode(live), &view); err != nil {
		t.Fatal(err)
	}
	fromWire := NewReport()
	fromWire.MergeWire(&view)
	later := NewReport()
	later.AddChained("A", "d1", "A/act", diag, CausalChain{Kind: "delay", SharePermille: 7}, simclock.Second)
	if err := dec.Decode(enc.Encode(later), &view); err != nil {
		t.Fatal(err)
	}
	if got, want := fromWire.entries.get(key).Chain, live.entries.get(key).Chain; *got != *want {
		t.Errorf("a chain merged from a view changed to %+v with the next document decoded into it, want %+v", *got, *want)
	}
}

// TestDeviceSetAllocs: copying a handed-out entry on write allocates its
// leaf and nothing else, whatever the size of its device set. (That
// merging a device an owned entry already holds allocates nothing is
// TestMergeWireRunAllocs.)
func TestDeviceSetAllocs(t *testing.T) {
	we := &WireEntry{App: "A", ActionUID: "A/act", RootCause: "x.Y.m", Hangs: 1, Devices: []string{"d1"}}
	devs := make([]string, 50)
	for i := range devs {
		devs[i] = fmt.Sprintf("device-%02d", i)
	}
	var from entryTrie
	src := we.entry()
	from.bind(hashOf(&src), &src, devs)
	handedOut := from.leaf(&src)
	// t owns its root node but not the leaf in it, as a batch does after
	// its first write elsewhere on the path: writable copies the leaf
	// alone.
	var tr entryTrie
	tr.put(handedOut)
	allocs := testing.AllocsPerRun(100, func() {
		tr.root.leaves[0] = handedOut
		if e := tr.writable(handedOut.h, &src); e == &handedOut.entry || e.Devices.Len() != 50 {
			t.Fatal("writable did not copy the handed-out entry with its 50 devices")
		}
	})
	if allocs != 1 {
		t.Errorf("copying a handed-out entry with 50 devices allocates %v objects, want 1 (the leaf)", allocs)
	}
}

// TestDeviceSetIdentityProbe: with finds a one-device list's name by the
// identity of its string before it compares names, and the probe never
// changes a result: an equal name at another address is still the held
// device, a shorter name at a held name's address is a new one,
// re-merging the held string allocates nothing, and for lists mixing
// shared, cloned and prefix strings with is the sorted union.
func TestDeviceSetIdentityProbe(t *testing.T) {
	names := make([]string, 30)
	for i := range names {
		names[i] = fmt.Sprintf("device-%02d", i)
	}
	s := DeviceSet{}.with([]string{names[7], names[12], names[29]})
	held := s.ids[1]
	clone, prefix := strings.Clone(held), held[:len(held)-1] // "device-12", "device-1"
	for _, c := range []struct {
		name string
		dev  string
		hit  bool
	}{{"held string", held, true}, {"clone", clone, false}, {"prefix", prefix, false}} {
		if got := s.holdsString(c.dev); got != c.hit {
			t.Errorf("holdsString(%s %q) = %v, want %v", c.name, c.dev, got, c.hit)
		}
	}
	if got := s.with([]string{clone}); got.Len() != s.Len() || &got.ids[0] != &s.ids[0] {
		t.Errorf("merging a held device's cloned name gives %q (same array: %v), want the set itself",
			got.ids, got.Len() > 0 && &got.ids[0] == &s.ids[0])
	}
	if got, want := s.with([]string{prefix}).ids, []string{"device-07", "device-1", "device-12", "device-29"}; !slices.Equal(got, want) {
		t.Errorf("merging %q, a prefix of a held name at its address, gives %q, want %q", prefix, got, want)
	}
	var got DeviceSet
	one := []string{held}
	if n := testing.AllocsPerRun(100, func() { got = s.with(one) }); n != 0 || &got.ids[0] != &s.ids[0] {
		t.Errorf("re-merging a held device allocates %v objects and keeps the set: %v, want 0 and true", n, &got.ids[0] == &s.ids[0])
	}

	rng := simrand.New(30).Derive("identity-probe")
	for round := 0; round < 2000; round++ {
		var members []string
		for _, n := range names {
			if rng.Bool(0.3) {
				members = append(members, n)
			}
		}
		set := DeviceSet{}.with(members)
		devs := make([]string, 1)
		if rng.Bool(0.3) {
			devs = make([]string, 2+rng.Intn(3))
		}
		for i := range devs {
			n := names[rng.Intn(len(names))]
			switch rng.Intn(3) {
			case 1:
				n = strings.Clone(n)
			case 2:
				n = n[:len(n)-1]
			}
			devs[i] = n
		}
		want := slices.Concat(members, devs)
		slices.Sort(want)
		want = slices.Compact(want)
		if got := set.with(devs).ids; !slices.Equal(got, want) {
			t.Fatalf("round %d: %q with %q gives %q, want the sorted union %q", round, members, devs, got, want)
		}
	}
}
