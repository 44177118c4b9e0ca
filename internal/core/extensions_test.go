package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"hangdoctor/internal/corpus"
	"hangdoctor/internal/perf"
	"hangdoctor/internal/simclock"
)

func buildCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	return corpus.Build()
}

func TestWideCollection(t *testing.T) {
	c := buildCorpus(t)
	d, _ := runHD(t, c, "K9-Mail", Config{WideCollectEvery: 3}, 11, 150)
	data := d.WideData()
	if len(data) == 0 {
		t.Fatal("no wide readings collected")
	}
	bugs, uis := 0, 0
	for _, r := range data {
		if len(r.Values) != len(CandidateEvents()) {
			t.Fatalf("reading has %d events, want %d", len(r.Values), len(CandidateEvents()))
		}
		if r.IsBug {
			bugs++
		} else {
			uis++
		}
	}
	if bugs == 0 || uis == 0 {
		t.Fatalf("wide labels lack variety: bugs=%d uis=%d", bugs, uis)
	}
}

func TestWideCollectionDisabledByDefault(t *testing.T) {
	c := buildCorpus(t)
	d, _ := runHD(t, c, "K9-Mail", Config{}, 11, 60)
	if len(d.WideData()) != 0 {
		t.Fatal("wide data collected without WideCollectEvery")
	}
}

func TestWideCollectionDoesNotPerturbStateMachine(t *testing.T) {
	c1 := buildCorpus(t)
	c2 := buildCorpus(t)
	d1, _ := runHD(t, c1, "K9-Mail", Config{ResetEvery: 1 << 30}, 11, 120)
	d2, _ := runHD(t, c2, "K9-Mail", Config{ResetEvery: 1 << 30, WideCollectEvery: 4}, 11, 120)
	// The collection task must not change what gets diagnosed (it never
	// touches action state). Detections may differ in counts only through
	// measurement-noise draws; root-cause sets must match.
	roots := func(d *Doctor) map[string]bool {
		out := map[string]bool{}
		for _, det := range d.Detections() {
			out[det.ActionUID+"|"+det.RootCause] = true
		}
		return out
	}
	r1, r2 := roots(d1), roots(d2)
	for k := range r1 {
		if !r2[k] {
			t.Errorf("detection %s lost when wide collection enabled", k)
		}
	}
}

func TestHeavyAdaptFromWideData(t *testing.T) {
	// End-to-end §3.3.1 heavy adaptation: collect wide readings on device,
	// re-run the selection server-side, and get a working filter back.
	c := buildCorpus(t)
	d, _ := runHD(t, c, "K9-Mail", Config{WideCollectEvery: 2}, 11, 200)
	data := d.WideData()
	if len(data) < 6 {
		t.Skipf("only %d wide readings", len(data))
	}
	res, err := HeavyAdapt(CandidateEvents(), data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conditions) == 0 || res.FN != 0 {
		t.Fatalf("heavy adaptation result: %+v", res)
	}
	// The adapted filter must remain in the candidate family.
	for _, cond := range res.Conditions {
		found := false
		for _, e := range CandidateEvents() {
			if cond.Event == e {
				found = true
			}
		}
		if !found {
			t.Errorf("adapted condition on non-candidate event %v", cond.Event)
		}
	}
}

func TestReportExportImportRoundTrip(t *testing.T) {
	r := NewReport()
	diag := Diagnosis{RootCause: "x.Y.m", File: "Y.java", Line: 3}
	r.Add("App", "dev1", "App/act", diag, 200*simclock.Millisecond)
	r.Add("App", "dev2", "App/act", diag, 300*simclock.Millisecond)
	r.Add("App", "dev1", "App/act2", Diagnosis{RootCause: "z.W.n", ViaCaller: true}, 150*simclock.Millisecond)

	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ImportReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != r.Len() || back.TotalHangs() != r.TotalHangs() {
		t.Fatalf("round trip: len %d->%d hangs %d->%d", r.Len(), back.Len(), r.TotalHangs(), back.TotalHangs())
	}
	a, b := r.Entries(), back.Entries()
	for i := range a {
		if a[i].RootCause != b[i].RootCause || a[i].Hangs != b[i].Hangs ||
			a[i].Devices.Len() != b[i].Devices.Len() ||
			a[i].MaxResponse != b[i].MaxResponse ||
			a[i].SumResponse != b[i].SumResponse ||
			a[i].ViaCaller != b[i].ViaCaller {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestReportImportRejectsBadInput(t *testing.T) {
	if _, err := ImportReport(strings.NewReader("{not json")); err == nil {
		t.Fatal("accepted malformed JSON")
	}
	if _, err := ImportReport(strings.NewReader(`{"version":99,"entries":[]}`)); err == nil {
		t.Fatal("accepted unknown version")
	}
	bad := `{"version":1,"entries":[{"app":"A","action_uid":"A/x","root_cause":"r","hangs":0}]}`
	if _, err := ImportReport(strings.NewReader(bad)); err == nil {
		t.Fatal("accepted non-positive hang count")
	}
}

func TestReportAnonymize(t *testing.T) {
	r := NewReport()
	diag := Diagnosis{RootCause: "x.Y.m"}
	r.Add("App", "alice-phone", "App/act", diag, 200*simclock.Millisecond)
	r.Add("App", "bob-phone", "App/act", diag, 250*simclock.Millisecond)
	anon := r.Anonymize("salt1")
	e := anon.Entries()[0]
	if e.Devices.Len() != 2 {
		t.Fatalf("device count changed: %d", e.Devices.Len())
	}
	for _, d := range e.Devices.ids {
		if strings.Contains(d, "alice") || strings.Contains(d, "bob") {
			t.Fatalf("device identifier leaked: %q", d)
		}
		if !strings.HasPrefix(d, "dev-") {
			t.Fatalf("unexpected anonymized form: %q", d)
		}
	}
	// Same salt → stable pseudonyms (mergeable across uploads); different
	// salt → unlinkable.
	anon2 := r.Anonymize("salt1")
	anon3 := r.Anonymize("salt2")
	same := anon.Entries()[0].Devices.ids
	if !slices.Equal(anon2.Entries()[0].Devices.ids, same) {
		t.Fatal("same salt produced different pseudonyms")
	}
	for _, d := range anon3.Entries()[0].Devices.ids {
		if slices.Contains(same, d) {
			t.Fatal("different salts produced linkable pseudonyms")
		}
	}
	// Merging anonymized reports still counts distinct devices.
	merged := NewReport()
	merged.Merge(anon, anon2)
	if got := merged.Entries()[0].Devices.Len(); got != 2 {
		t.Fatalf("merged device count = %d, want 2", got)
	}
}

func TestCandidateEventsAreTable3Top10(t *testing.T) {
	evs := CandidateEvents()
	if len(evs) != 10 {
		t.Fatalf("candidate events = %d, want 10", len(evs))
	}
	seen := map[perf.Event]bool{}
	for _, e := range evs {
		if seen[e] {
			t.Fatalf("duplicate candidate %v", e)
		}
		seen[e] = true
	}
	for _, must := range []perf.Event{perf.ContextSwitches, perf.TaskClock, perf.PageFaults} {
		if !seen[must] {
			t.Fatalf("candidate set missing %v", must)
		}
	}
}

func TestTelemetryDashboard(t *testing.T) {
	c := buildCorpus(t)
	d, _ := runHD(t, c, "K9-Mail", Config{}, 11, 120)
	tel := d.Telemetry()
	open := tel.actions["K9-Mail/Open Email"]
	if open == nil || open.Executions == 0 {
		t.Fatal("no telemetry for Open Email")
	}
	if open.HangRate() <= 0 {
		t.Fatal("Open Email hang rate zero despite its bug")
	}
	quickAct := tel.actions["K9-Mail/Mark Read"]
	if quickAct == nil {
		t.Fatal("no telemetry for Mark Read")
	}
	if quickAct.HangRate() >= open.HangRate() {
		t.Fatalf("quick action hang rate %.2f >= buggy action %.2f",
			quickAct.HangRate(), open.HangRate())
	}
	// Percentiles are ordered.
	if !(open.Percentile(0.5) <= open.Percentile(0.95) && open.Percentile(0.95) <= open.Percentile(0.99)) {
		t.Fatal("percentiles not monotone")
	}
	// Dashboard ranks the hang-prone actions on top.
	rows := tel.Actions()
	for i := 1; i < len(rows); i++ {
		if rows[i].HangRate() > rows[i-1].HangRate() {
			t.Fatal("dashboard not sorted by hang rate")
		}
	}
	if !strings.Contains(tel.Render(), "Open Email") {
		t.Fatal("render missing action")
	}
}

func TestTelemetryReservoirBounded(t *testing.T) {
	tel := NewTelemetry(0)
	for i := 0; i < 5000; i++ {
		tel.Record("a/x", simclock.Duration(i)*simclock.Millisecond)
	}
	s := tel.actions["a/x"]
	if s.Executions != 5000 {
		t.Fatalf("executions = %d", s.Executions)
	}
	if len(s.reservoir) != maxReservoir {
		t.Fatalf("reservoir = %d, want %d", len(s.reservoir), maxReservoir)
	}
	// The reservoir still represents the distribution: the median of
	// 0..4999ms is ~2500ms.
	if p50 := s.Percentile(0.5); p50 < 1500 || p50 > 3500 {
		t.Fatalf("reservoir median = %.0f, want ~2500", p50)
	}
}
