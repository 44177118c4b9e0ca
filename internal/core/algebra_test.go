package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

// identityFields are the ReportEntry fields that form the entry key, which
// merge never changes. Every other exported field must be combined by
// merge.
var identityFields = map[string]bool{"App": true, "ActionUID": true, "RootCause": true}

// fillRandom sets v (a settable value) to random contents that both wire
// formats accept: non-empty ASCII strings, ints in [1,1000], positive
// durations, small device sets drawn from a shared pool so sets overlap.
// A field of a kind it cannot generate fails the test, so a new field
// needs a generator before the laws can pass.
func fillRandom(t *testing.T, rng *simrand.Rand, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", rng.Intn(6)))
	case reflect.Int:
		v.SetInt(int64(1 + rng.Intn(1000)))
	case reflect.Int64:
		v.SetInt(1 + rng.Int63n(int64(10*simclock.Second)))
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 1+rng.Intn(5); i++ {
			m.SetMapIndex(reflect.ValueOf(fmt.Sprintf("device-%d", rng.Intn(8))), reflect.ValueOf(true))
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(t, rng, v.Field(i))
		}
	default:
		t.Fatalf("no random generator for a field of type %s", v.Type())
	}
}

// randEntry returns an entry with the given identity and every other
// field random.
func randEntry(t *testing.T, rng *simrand.Rand, id *ReportEntry) *ReportEntry {
	t.Helper()
	e := id.empty(0)
	v := reflect.ValueOf(e).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !identityFields[v.Type().Field(i).Name] {
			fillRandom(t, rng, v.Field(i))
		}
	}
	return e
}

// randIdentity returns an empty entry with random identity fields.
func randIdentity(t *testing.T, rng *simrand.Rand) *ReportEntry {
	t.Helper()
	e := &ReportEntry{}
	v := reflect.ValueOf(e).Elem()
	for i := 0; i < v.NumField(); i++ {
		if identityFields[v.Type().Field(i).Name] {
			fillRandom(t, rng, v.Field(i))
		}
	}
	return e.empty(0)
}

// clone returns a deep copy of e through newLeaf, which every
// production copy uses.
func (e *ReportEntry) clone() *ReportEntry { return new(entryTrie).newLeaf(0, "", e, nil).e }

// sum is the reference merge: a fresh entry holding a ⊕ b ⊕ ….
func sum(es ...*ReportEntry) *ReportEntry {
	out := es[0].clone()
	for _, e := range es[1:] {
		out.merge(e, nil)
	}
	return out
}

// reportOf wraps entries (all of one key) into a report through the one
// merge path.
func reportOf(es ...*ReportEntry) *Report {
	r := NewReport()
	for _, e := range es {
		r.add(keyOf(e), e, nil)
	}
	return r
}

func keyOf(e *ReportEntry) string { return entryKey(e.App, e.ActionUID, e.RootCause) }

func decodeBinary(t *testing.T, r *Report) *WireReport {
	t.Helper()
	wr, err := NewBinaryDecoder().Decode(AppendReportBinary(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	return wr
}

// jsonEntries concatenates the JSON entry lists of reports into one
// document, which may hold several entries under one key.
func jsonEntries(t *testing.T, reps ...*Report) []byte {
	t.Helper()
	doc := reportWire{Version: reportWireVersion}
	for _, r := range reps {
		var buf bytes.Buffer
		if err := r.Export(&buf); err != nil {
			t.Fatal(err)
		}
		var one reportWire
		if err := json.Unmarshal(buf.Bytes(), &one); err != nil {
			t.Fatal(err)
		}
		doc.Entries = append(doc.Entries, one.Entries...)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReportAlgebraLaws pins the report algebra by reflection over every
// exported field: merge combines every non-identity field, is commutative
// and associative with an entry's empty as its identity, clones are
// independent, every path that builds, copies or combines entries agrees
// with the reference merge, and the same holds for Health.
func TestReportAlgebraLaws(t *testing.T) {
	rng := simrand.New(12).Derive("algebra")

	// A field merge ignores keeps the destination's value, so two entries
	// that differ only in that field merge differently in the two orders.
	t.Run("every-field-merged", func(t *testing.T) {
		typ := reflect.TypeOf(ReportEntry{})
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() || identityFields[f.Name] {
				continue
			}
			id := randIdentity(t, rng)
			a, b := id.empty(0), id.empty(0)
			for reflect.DeepEqual(a, b) {
				fillRandom(t, rng, reflect.ValueOf(a).Elem().Field(i))
				fillRandom(t, rng, reflect.ValueOf(b).Elem().Field(i))
			}
			if !reflect.DeepEqual(sum(a, b), sum(b, a)) {
				t.Errorf("merge ignores ReportEntry.%s: make it an identity field or combine it in merge", f.Name)
			}
		}
	})

	t.Run("monoid", func(t *testing.T) {
		for trial := 0; trial < 300; trial++ {
			id := randIdentity(t, rng)
			a, b, c := randEntry(t, rng, id), randEntry(t, rng, id), randEntry(t, rng, id)
			if got := sum(a.empty(0), a); !reflect.DeepEqual(got, a) {
				t.Fatalf("empty is not a left identity:\n got %+v\nwant %+v", got, a)
			}
			if got := sum(a, a.empty(0)); !reflect.DeepEqual(got, a) {
				t.Fatalf("empty is not a right identity:\n got %+v\nwant %+v", got, a)
			}
			if ab, ba := sum(a, b), sum(b, a); !reflect.DeepEqual(ab, ba) {
				t.Fatalf("merge is not commutative:\n%+v\n%+v", ab, ba)
			}
			if l, r := sum(sum(a, b), c), sum(a, sum(b, c)); !reflect.DeepEqual(l, r) {
				t.Fatalf("merge is not associative:\n%+v\n%+v", l, r)
			}
		}
	})

	t.Run("clone-independent", func(t *testing.T) {
		for trial := 0; trial < 100; trial++ {
			id := randIdentity(t, rng)
			seed := uint64(trial)
			a := randEntry(t, simrand.New(seed), id)
			c := a.clone()
			if c == a || !reflect.DeepEqual(c, a) {
				t.Fatal("clone is not an equal, separate entry")
			}
			c.merge(randEntry(t, rng, id), []string{"device-new"})
			if !reflect.DeepEqual(a, randEntry(t, simrand.New(seed), id)) {
				t.Fatal("merging into a clone changed its source")
			}
		}
	})

	t.Run("paths", func(t *testing.T) {
		for trial := 0; trial < 100; trial++ {
			id := randIdentity(t, rng)
			key := keyOf(id)
			a, b := randEntry(t, rng, id), randEntry(t, rng, id)
			ab := sum(a, b)
			check := func(path string, r *Report, want *ReportEntry) {
				t.Helper()
				if got := r.entries.get(key); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s:\n got %+v\nwant %+v", path, got, want)
				}
				if r.Len() != 1 || r.TotalHangs() != want.Hangs {
					t.Fatalf("%s: %d entries, %d hangs; want 1 entry, %d hangs", path, r.Len(), r.TotalHangs(), want.Hangs)
				}
			}

			m := NewReport()
			m.Merge(reportOf(a), reportOf(b))
			check("Merge", m, ab)
			check("FoldReports", FoldReports(reportOf(a), reportOf(b)), ab)
			check("FoldReportsShared", FoldReportsShared(reportOf(a), reportOf(b)), ab)
			check("Clone", reportOf(a).Clone(), a)
			for _, f := range reportOf(a).Split(3) {
				if f != nil {
					check("Split", f, a)
				}
			}
			live := reportOf(a)
			sc := NewSnapshotCache(live)
			sc.Bump()
			snap := sc.Snapshot()
			live.Merge(reportOf(b))
			check("SnapshotCache live", live, ab)
			check("SnapshotCache.Snapshot", snap, a)
			check("RefreshKeys", NewReport().RefreshKeys([]string{key}, reportOf(a), reportOf(b)), ab)

			w := reportOf(a)
			w.MergeWireEntries(decodeBinary(t, reportOf(b)).Entries)
			check("MergeWireEntries", w, ab)
			full := NewReport()
			full.ApplyWireFull(decodeBinary(t, reportOf(ab)))
			check("ApplyWireFull", full, ab)
			delta := reportOf(a)
			delta.ApplyWireDelta(decodeBinary(t, reportOf(ab)))
			check("ApplyWireDelta", delta, ab)
			imported, err := ImportReport(bytes.NewReader(jsonEntries(t, reportOf(a), reportOf(b))))
			if err != nil {
				t.Fatal(err)
			}
			check("ImportReport", imported, ab)

			// AddChained merges a one-hang, one-device entry.
			added := NewReport()
			var hangs []*ReportEntry
			for i, chain := range []CausalChain{a.Chain, b.Chain} {
				dev, rt := fmt.Sprintf("device-%d", i), simclock.Duration(rng.Intn(1e9))
				added.AddChained(id.App, dev, id.ActionUID,
					Diagnosis{RootCause: id.RootCause, File: id.File, Line: id.Line, ViaCaller: id.ViaCaller},
					chain, rt)
				h := id.empty(1)
				h.Hangs, h.MaxResponse, h.SumResponse, h.Chain = 1, rt, rt, chain
				h.Devices[dev] = true
				hangs = append(hangs, h)
			}
			check("AddChained", added, sum(hangs...))

			// Anonymizing commutes with merging, and changes only devices.
			anonAB := FoldReports(reportOf(a), reportOf(b)).Anonymize("salt")
			if want := FoldReports(reportOf(a).Anonymize("salt"), reportOf(b).Anonymize("salt")); !reflect.DeepEqual(anonAB, want) {
				t.Fatal("Anonymize does not commute with Merge")
			}
			got, plain := anonAB.entries.get(key).clone(), ab.clone()
			if len(got.Devices) != len(plain.Devices) {
				t.Fatalf("Anonymize: %d devices, want %d", len(got.Devices), len(plain.Devices))
			}
			got.Devices, plain.Devices = nil, nil
			if !reflect.DeepEqual(got, plain) {
				t.Fatalf("Anonymize changed more than devices:\n got %+v\nwant %+v", got, plain)
			}
		}
	})

	// Sums saturate instead of wrapping, counts at math.MaxInt and
	// response sums at math.MaxInt64: still a commutative monoid, and a
	// saturated entry survives both wire formats and every combining path.
	t.Run("saturating", func(t *testing.T) {
		id := randIdentity(t, rng)
		near := func(below int) *ReportEntry {
			e := randEntry(t, rng, id)
			e.Hangs, e.SumResponse = math.MaxInt-below, math.MaxInt64-simclock.Duration(below)
			return e
		}
		a, b, c := near(1), near(2), randEntry(t, rng, id)
		ab := sum(a, b)
		if ab.Hangs != math.MaxInt || ab.SumResponse != math.MaxInt64 {
			t.Fatalf("merge wrapped: %d hangs, sum %d", ab.Hangs, ab.SumResponse)
		}
		if !reflect.DeepEqual(ab, sum(b, a)) || !reflect.DeepEqual(sum(ab, c), sum(a, sum(b, c))) {
			t.Fatal("saturating merge is not commutative and associative")
		}
		for path, r := range map[string]*Report{
			"FoldReports":       FoldReports(reportOf(a), reportOf(b)),
			"FoldReportsShared": FoldReportsShared(reportOf(a), reportOf(b)),
			"binary":            decodeBinary(t, reportOf(a, b)).Report(),
		} {
			if got := r.entries.get(keyOf(id)); !reflect.DeepEqual(got, ab) || r.TotalHangs() != math.MaxInt {
				t.Fatalf("%s: %+v with %d total hangs, want %+v with %d", path, got, r.TotalHangs(), ab, math.MaxInt)
			}
		}
		imported, err := ImportReport(bytes.NewReader(jsonEntries(t, reportOf(ab))))
		if err != nil || !reflect.DeepEqual(imported.entries.get(keyOf(id)), ab) {
			t.Fatalf("JSON round trip of a saturated entry: %v", err)
		}
		h := Health{Quarantines: math.MaxInt - 1}
		h.Add(Health{Quarantines: 2})
		if h.Quarantines != math.MaxInt {
			t.Fatalf("Health.Add wrapped to %d", h.Quarantines)
		}
	})

	// The report-level inputs: device reports merged in any order give the
	// same fleet view, and mutating a clone never leaks into its source.
	t.Run("reports", func(t *testing.T) {
		local := simrand.New(77)
		mkReport := func(seed string) *Report {
			r := NewReport()
			rng := local.Derive(seed)
			for i := 0; i < 5+rng.Intn(10); i++ {
				r.AddChained("App", "dev"+string(rune('a'+rng.Intn(4))), "App/act"+string(rune('0'+rng.Intn(3))),
					Diagnosis{RootCause: "c.C.m" + string(rune('0'+rng.Intn(3)))},
					CausalChain{Kind: []string{"", "submit", "post"}[rng.Intn(3)], SharePermille: rng.Intn(1001)},
					simclock.Duration(100+rng.Intn(900))*simclock.Millisecond)
			}
			r.Health.StacksDropped = rng.Intn(3)
			return r
		}
		a, b, c := mkReport("a"), mkReport("b"), mkReport("c")
		abc, cba := FoldReports(a, b, c), FoldReports(c, b, a)
		if !reflect.DeepEqual(abc, cba) {
			t.Fatal("merge order changed the fleet report")
		}
		if !reflect.DeepEqual(FoldReports(FoldReports(a, b), c), FoldReports(a, FoldReports(b, c))) {
			t.Fatal("merge grouping changed the fleet report")
		}
		if !reflect.DeepEqual(FoldReports(abc, NewReport()), abc) {
			t.Fatal("the empty report is not an identity")
		}

		r := foldFixture()
		cl := r.Clone()
		if !reflect.DeepEqual(cl, r) {
			t.Fatal("clone differs from its source")
		}
		cl.Add("new-app", "new-dev", "new-app/Act",
			Diagnosis{RootCause: "com.example.New.run", File: "New.java", Line: 9}, simclock.Second)
		for _, e := range cl.Entries() {
			e.merge(e.clone(), []string{"device-leak"})
		}
		cl.Health.Quarantines++
		if !reflect.DeepEqual(r, foldFixture()) {
			t.Error("mutating a clone changed the source report")
		}
	})

	t.Run("health", func(t *testing.T) {
		typ := reflect.TypeOf(Health{})
		randHealth := func() Health {
			var h Health
			fillRandom(t, rng, reflect.ValueOf(&h).Elem())
			return h
		}
		for i := 0; i < typ.NumField(); i++ {
			var src, dst Health
			fillRandom(t, rng, reflect.ValueOf(&src).Elem().Field(i))
			dst.Add(src)
			if reflect.ValueOf(dst).Field(i).IsZero() {
				t.Errorf("Health.Add ignores %s", typ.Field(i).Name)
			}
		}
		add := func(hs ...Health) Health {
			var out Health
			for _, h := range hs {
				out.Add(h)
			}
			return out
		}
		for trial := 0; trial < 100; trial++ {
			a, b, c := randHealth(), randHealth(), randHealth()
			if add(a, Health{}) != a || add(a, b) != add(b, a) || add(add(a, b), c) != add(a, add(b, c)) {
				t.Fatalf("Health.Add is not a commutative monoid over %+v %+v %+v", a, b, c)
			}
			ra, rb := NewReport(), NewReport()
			ra.Health, rb.Health = a, b
			if got := FoldReports(ra, rb).Health; got != add(a, b) {
				t.Fatalf("Merge health %+v, want %+v", got, add(a, b))
			}
			var buf bytes.Buffer
			if err := ra.Export(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := ImportReport(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if back.Health != a {
				t.Fatalf("JSON health section lost data: %+v, want %+v", back.Health, a)
			}
			if got := decodeBinary(t, ra).Health; got != a {
				t.Fatalf("binary health section lost data: %+v, want %+v", got, a)
			}
		}
	})
}
