package core

// mergerun_test.go checks the lockstep run merge against the per-entry
// merge it stands for: each wire entry of the run through Report.add, one
// after another, in run order.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

// addRun merges ents[run[0]], ents[run[1]], ... into r one at a time
// through add: the reference MergeWireRun must match.
func addRun(r *Report, ents []WireEntry, run []int32) {
	for _, j := range run {
		src := ents[j].entry()
		r.add(hashOf(&src), &src, ents[j].Devices)
	}
}

// routed returns a view of ents whose identity hashes Runs has recorded,
// so that any run of its indices merges.
func routed(ents []WireEntry) *WireReport {
	wr := &WireReport{Entries: ents}
	wr.Runs(1)
	return wr
}

// randomRun draws up to 60 wire entries over nIDs identities, and a run
// of some of their indices in random order. Most entries list one device
// from devices, which the reports then hold by that very string; some
// list a copy of such a name, found only by its bytes, and some list
// several devices out of order and with repeats, or none. A few carry a
// causal chain.
func randomRun(rng *simrand.Rand, ids []*ReportEntry, devices []string) ([]WireEntry, []int32) {
	ents := make([]WireEntry, 1+rng.Intn(60))
	for i := range ents {
		id := ids[rng.Intn(len(ids))]
		we := WireEntry{
			App: id.App, ActionUID: id.ActionUID, RootCause: id.RootCause,
			File: fmt.Sprintf("F%d.java", rng.Intn(3)), Line: 1 + rng.Intn(40), ViaCaller: rng.Intn(5) == 0,
			Hangs:       1 + rng.Intn(4),
			MaxResponse: simclock.Duration(1+rng.Intn(900)) * simclock.Millisecond,
		}
		we.SumResponse = we.MaxResponse * simclock.Duration(we.Hangs)
		switch p := rng.Intn(20); {
		case p < 12:
			we.Devices = []string{devices[rng.Intn(len(devices))]}
		case p < 15:
			we.Devices = []string{strings.Clone(devices[rng.Intn(len(devices))])}
		case p < 19:
			for range 2 + rng.Intn(6) {
				we.Devices = append(we.Devices, devices[rng.Intn(len(devices))])
			}
		}
		if rng.Intn(6) == 0 {
			we.Chain = CausalChain{Kind: "submit", OriginAction: id.ActionUID, OriginSite: fmt.Sprintf("x.T%d.run", rng.Intn(3)), SharePermille: rng.Intn(1000)}
		}
		ents[i] = we
	}
	perm := rng.Perm(len(ents))
	run := make([]int32, rng.Intn(len(ents)+1))
	for k := range run {
		run[k] = int32(perm[k])
	}
	return ents, run
}

// TestMergeWireRunMatchesAdd: random runs, with repeated and new
// identities and a snapshot handed out between some of them, merged
// through MergeWireRun and through add one entry at a time, give the same
// report: the same trie with the same stamps, byte-identical JSON and
// binary encodings, byte-identical deltas since every version, and
// handed-out snapshots that stay as they were.
func TestMergeWireRunMatchesAdd(t *testing.T) {
	devices := make([]string, 24)
	for i := range devices {
		devices[i] = fmt.Sprintf("device-%02d", i)
	}
	for seed := uint64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := simrand.New(seed).Derive("merge-wire-run")
			// Few identities repeat within every run; many keep arriving new.
			ids := make([]*ReportEntry, 4+rng.Intn(200))
			for i := range ids {
				ids[i] = rowOf(fmt.Sprintf("app-%d", i%3), fmt.Sprintf("act-%d", i%7), fmt.Sprintf("c.C%d.m", i))
			}
			grouped, ref := NewReport(), NewReport()
			gc, rc := NewSnapshotCache(grouped), NewSnapshotCache(ref)
			type handed struct {
				grouped, ref *Report
				bin          []byte
			}
			var snaps []handed
			for round := range 40 {
				ents, run := randomRun(rng, ids, devices)
				grouped.MergeWireRun(routed(ents), run)
				addRun(ref, ents, run)
				gc.Bump()
				rc.Bump()
				if rng.Intn(3) == 0 {
					g, r := gc.Snapshot(), rc.Snapshot()
					if !reflect.DeepEqual(g, r) {
						t.Fatalf("round %d: the run merge differs from add one entry at a time:\n%s\nwant\n%s", round, g.Render(), r.Render())
					}
					snaps = append(snaps, handed{g, r, AppendReportBinary(nil, r)})
				}
			}
			if !bytes.Equal(exportJSON(t, grouped), exportJSON(t, ref)) {
				t.Error("the run merge exports JSON unlike add one entry at a time")
			}
			if !bytes.Equal(AppendReportBinary(nil, grouped), AppendReportBinary(nil, ref)) {
				t.Error("the run merge encodes unlike add one entry at a time")
			}
			g, r := gc.Snapshot(), rc.Snapshot()
			if !reflect.DeepEqual(g, r) {
				t.Fatal("the run merge differs from add one entry at a time")
			}
			for v := range gc.Version() + 1 {
				if !bytes.Equal(AppendReportBinary(nil, DeltaSince([]*Report{g}, []uint64{v})), AppendReportBinary(nil, DeltaSince([]*Report{r}, []uint64{v}))) {
					t.Errorf("the deltas since version %d differ", v)
				}
			}
			for i, h := range snaps {
				if !bytes.Equal(AppendReportBinary(nil, h.grouped), h.bin) || !bytes.Equal(AppendReportBinary(nil, h.ref), h.bin) {
					t.Errorf("snapshot %d changed after it was handed out", i)
				}
			}
		})
	}
}

// TestMergeWireRunAllocs: a warm run merge whose entries each list one
// device their report entry already holds allocates nothing, over a run of
// several lockstep groups in no particular order and with a version bump
// between runs.
func TestMergeWireRunAllocs(t *testing.T) {
	ents := make([]WireEntry, 2*lockstep+lockstep/2)
	run := make([]int32, len(ents))
	for i := range ents {
		ents[i] = WireEntry{
			App: "A", ActionUID: fmt.Sprintf("A/act-%d", i%5), RootCause: fmt.Sprintf("c.C%d.m", i),
			Hangs: 1, Devices: []string{fmt.Sprintf("d%d", i%3)},
		}
		run[i] = int32((7 * i) % len(ents))
	}
	wr := routed(ents)
	r := NewReport()
	sc := NewSnapshotCache(r)
	r.MergeWireRun(wr, run)
	sc.Bump()
	if n := testing.AllocsPerRun(100, func() {
		r.MergeWireRun(wr, run)
		sc.Bump()
	}); n != 0 {
		t.Errorf("a warm run merge of held devices allocates %v objects, want 0", n)
	}
}
