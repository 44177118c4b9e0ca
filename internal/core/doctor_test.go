package core

import (
	"strings"
	"testing"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/detect"
	"hangdoctor/internal/perf"
	"hangdoctor/internal/simclock"
)

// runHD runs Hang Doctor over a trace of one app and returns the doctor and
// harness.
func runHD(t *testing.T, c *corpus.Corpus, appName string, cfg Config, seed uint64, n int) (*Doctor, *detect.Harness) {
	t.Helper()
	a := c.MustApp(appName)
	d := New(cfg)
	h, err := detect.NewHarness(a, app.LGV10(), seed, d)
	if err != nil {
		t.Fatal(err)
	}
	h.Run(corpus.Trace(a, seed, n), simclock.Second)
	return d, h
}

func TestDoctorFindsK9Bugs(t *testing.T) {
	c := corpus.Build()
	d, h := runHD(t, c, "K9-Mail", Config{}, 11, 140)

	roots := map[string]bool{}
	for _, det := range d.Detections() {
		roots[det.RootCause] = true
	}
	if !roots["org.htmlcleaner.HtmlCleaner.clean"] {
		t.Errorf("clean not diagnosed; detections: %v", roots)
	}
	if !roots["org.apache.james.mime4j.parser.MimeStreamParser.parse"] {
		t.Errorf("mime4j parse not diagnosed; detections: %v", roots)
	}
	for r := range roots {
		if strings.HasPrefix(r, "android.widget.") || strings.HasPrefix(r, "android.view.") {
			t.Errorf("UI API reported as bug: %s", r)
		}
	}

	ev := h.Evaluate(d)
	if ev.TP == 0 {
		t.Fatal("no true positives")
	}
	// The paper: HD traces ~80% of bug hangs (misses only the initial
	// S-Checker pass) and <10% of UI hangs.
	if ev.GroundTruthHangs > 0 {
		recall := float64(ev.TP) / float64(ev.GroundTruthHangs)
		if recall < 0.5 {
			t.Errorf("recall = %.2f (TP=%d of %d)", recall, ev.TP, ev.GroundTruthHangs)
		}
	}
	if ev.UIHangs > 0 {
		fpRate := float64(ev.FP) / float64(ev.UIHangs)
		if fpRate > 0.4 {
			t.Errorf("FP rate vs UI hangs = %.2f (FP=%d of %d UI hangs)", fpRate, ev.FP, ev.UIHangs)
		}
	}
}

func TestDoctorStateConvergence(t *testing.T) {
	c := corpus.Build()
	d, _ := runHD(t, c, "K9-Mail", Config{ResetEvery: 1 << 30}, 11, 140)
	// Bug actions end in HangBug, pure-UI hang actions in Normal.
	if got := d.State("K9-Mail/Open Email"); got != HangBug {
		t.Errorf("Open Email state = %v, want HangBug", got)
	}
	if got := d.State("K9-Mail/Folders"); got != Normal {
		t.Errorf("Folders state = %v, want Normal", got)
	}
	// Inbox (the engineered borderline UI action) must not be HangBug.
	if got := d.State("K9-Mail/Inbox"); got == HangBug {
		t.Error("Inbox (UI) converged to HangBug")
	}
}

func TestDoctorInboxPrunedByDiagnoser(t *testing.T) {
	// Figure 7: Inbox occasionally trips S-Checker (Suspicious) but the
	// Diagnoser prunes it back to Normal. Across seeds, it must never be
	// reported as a bug.
	c := corpus.Build()
	sawSuspicious := false
	for seed := uint64(1); seed <= 6; seed++ {
		d, _ := runHD(t, c, "K9-Mail", Config{ResetEvery: 1 << 30}, seed, 120)
		for _, tr := range d.Transitions() {
			if tr.ActionUID == "K9-Mail/Inbox" && tr.To == Suspicious {
				sawSuspicious = true
			}
		}
		for _, det := range d.Detections() {
			if det.ActionUID == "K9-Mail/Inbox" {
				t.Fatalf("Inbox diagnosed as bug: %+v", det)
			}
		}
	}
	if !sawSuspicious {
		t.Error("Inbox never became Suspicious; the Figure 7 false-positive path is not exercised")
	}
}

func TestDoctorFeedsKnownBlockingDatabase(t *testing.T) {
	c := corpus.Build()
	key := "org.htmlcleaner.HtmlCleaner.clean"
	if c.Registry.IsKnownBlocking(key) {
		t.Fatal("clean should start unknown")
	}
	runHD(t, c, "K9-Mail", Config{}, 11, 140)
	if !c.Registry.IsKnownBlocking(key) {
		t.Fatal("diagnosed API not fed back to the known-blocking database")
	}
}

func TestDoctorSelfDevelopedNotAddedToDatabase(t *testing.T) {
	c := corpus.Build()
	d, _ := runHD(t, c, "AndStatus", Config{}, 13, 200)
	found := false
	for _, det := range d.Detections() {
		if det.RootCause == "org.andstatus.app.data.MessageInserter.transform" {
			found = true
		}
	}
	if !found {
		t.Skip("self-developed transform not diagnosed in this trace")
	}
	if c.Registry.IsKnownBlocking("org.andstatus.app.data.MessageInserter.transform") {
		t.Fatal("self-developed operation added to the API database")
	}
}

func TestDoctorSymptomAttribution(t *testing.T) {
	// Table 6 mechanics: QKSMS bugs are CPU loops — flagged by the
	// context-switch and/or task-clock conditions, never by page faults
	// alone; Omni-Notes bugs are flagged by page faults.
	c := corpus.Build()
	d, _ := runHD(t, c, "QKSMS", Config{}, 17, 160)
	conds := DefaultConditions()
	for _, det := range d.Detections() {
		for _, si := range det.Symptoms {
			if conds[si].Event == perf.PageFaults {
				t.Errorf("QKSMS detection %s flagged by page faults", det.RootCause)
			}
		}
		if len(det.Symptoms) == 0 {
			t.Errorf("detection %s has no recorded symptoms", det.RootCause)
		}
	}

	d2, _ := runHD(t, c, "Omni-Notes", Config{}, 17, 160)
	if len(d2.Detections()) == 0 {
		t.Fatal("no Omni-Notes detections")
	}
	for _, det := range d2.Detections() {
		hasPF := false
		for _, si := range det.Symptoms {
			if conds[si].Event == perf.PageFaults {
				hasPF = true
			}
		}
		if !hasPF {
			t.Errorf("Omni-Notes detection %s not flagged by page faults (symptoms %v)", det.RootCause, det.Symptoms)
		}
	}
}

func TestDoctorOverheadBelowTimeout(t *testing.T) {
	c := corpus.Build()
	a := c.MustApp("K9-Mail")
	trace := corpus.Trace(a, 4, 100)

	run := func(det detect.Detector) float64 {
		h, err := detect.NewHarness(a, app.LGV10(), 21, det)
		if err != nil {
			t.Fatal(err)
		}
		h.Run(trace, simclock.Second)
		return h.Overhead(det).Avg()
	}
	hd := run(New(Config{}))
	ti := run(detect.NewTimeout(detect.PerceivableDelay))
	if hd >= ti {
		t.Fatalf("HD overhead %.2f%% not below TI %.2f%%", hd, ti)
	}
}

func TestDoctorResetRecoversOccasionalBug(t *testing.T) {
	// An action wrongly settled as Normal must be re-examined after
	// ResetEvery executions and eventually reach HangBug.
	c := corpus.Build()
	d, _ := runHD(t, c, "K9-Mail", Config{ResetEvery: 5}, 23, 200)
	resets := 0
	for _, tr := range d.Transitions() {
		if tr.Phase == "Reset" {
			resets++
		}
	}
	if resets == 0 {
		t.Fatal("periodic reset never fired")
	}
}

func TestDoctorReportAggregation(t *testing.T) {
	c := corpus.Build()
	d, _ := runHD(t, c, "K9-Mail", Config{}, 11, 140)
	rep := d.Report()
	if rep.Len() == 0 {
		t.Fatal("empty report")
	}
	entries := rep.Entries()
	var pctSum float64
	for _, e := range entries {
		if e.Hangs <= 0 {
			t.Fatalf("entry with no hangs: %+v", e)
		}
		pctSum += rep.OccurrencePct(e)
	}
	if pctSum < 99.9 || pctSum > 100.1 {
		t.Fatalf("occurrence percentages sum to %v", pctSum)
	}
	// Sorted descending.
	for i := 1; i < len(entries); i++ {
		if entries[i].Hangs > entries[i-1].Hangs {
			t.Fatal("entries not sorted by occurrence")
		}
	}
	if !strings.Contains(rep.Render(), "clean") {
		t.Fatal("rendered report missing the clean entry")
	}
}

func TestReportMerge(t *testing.T) {
	a := NewReport()
	b := NewReport()
	diag := Diagnosis{RootCause: "x.Y.m", File: "Y.java", Line: 3}
	a.Add("App", "dev1", "App/act", diag, 200*simclock.Millisecond)
	b.Add("App", "dev2", "App/act", diag, 300*simclock.Millisecond)
	b.Add("App", "dev2", "App/act2", Diagnosis{RootCause: "z.W.n"}, 150*simclock.Millisecond)
	a.Merge(b)
	if a.Len() != 2 || a.TotalHangs() != 3 {
		t.Fatalf("merged: len=%d hangs=%d", a.Len(), a.TotalHangs())
	}
	top := a.Entries()[0]
	if top.RootCause != "x.Y.m" || top.Hangs != 2 || top.Devices.Len() != 2 {
		t.Fatalf("top entry: %+v", top)
	}
	if top.MaxResponse != 300*simclock.Millisecond {
		t.Fatalf("MaxResponse = %v", top.MaxResponse)
	}
	if avg := top.SumResponse / simclock.Duration(top.Hangs); avg != 250*simclock.Millisecond {
		t.Fatalf("mean response = %v", avg)
	}
}

func TestDoctorDeterministic(t *testing.T) {
	c1 := corpus.Build()
	c2 := corpus.Build()
	d1, _ := runHD(t, c1, "K9-Mail", Config{}, 31, 80)
	d2, _ := runHD(t, c2, "K9-Mail", Config{}, 31, 80)
	a, b := d1.Detections(), d2.Detections()
	if len(a) != len(b) {
		t.Fatalf("detection counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].RootCause != b[i].RootCause || a[i].Count != b[i].Count {
			t.Fatalf("detections differ at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestLightAdapt(t *testing.T) {
	conds := DefaultConditions()
	var data []LabeledReading
	// Context-switch and task-clock differences carry no signal (constant);
	// only tightening the page-fault threshold to ~800 separates the data.
	for i := 0; i < 10; i++ {
		data = append(data, LabeledReading{Values: []int64{3, 1e8, 1000 + int64(i)}, IsBug: true})
		data = append(data, LabeledReading{Values: []int64{3, 1e8, 600 + int64(i)}, IsBug: false})
	}
	res, ok := LightAdapt(conds, data)
	if !ok {
		t.Fatalf("light adaptation failed: %+v", res)
	}
	if res.FN != 0 {
		t.Fatalf("FN = %d", res.FN)
	}
	var pfThr int64 = -1
	for _, c := range res.Conditions {
		if c.Event == perf.PageFaults {
			pfThr = c.Threshold
		}
	}
	if pfThr < 600 || pfThr >= 1000 {
		t.Fatalf("adapted page-fault threshold = %d, want in [600,1000)", pfThr)
	}
}

func TestHeavyAdapt(t *testing.T) {
	// The in-use events are useless; a different event separates perfectly.
	events := []perf.Event{perf.ContextSwitches, perf.TaskClock, perf.CacheMisses}
	var data []HeavyReading
	for i := 0; i < 12; i++ {
		isBug := i%2 == 0
		v := map[perf.Event]int64{
			perf.ContextSwitches: 5,
			perf.TaskClock:       1e8,
			perf.CacheMisses:     100,
		}
		if isBug {
			v[perf.CacheMisses] = 10000 + int64(i)
		}
		data = append(data, HeavyReading{Values: v, IsBug: isBug})
	}
	res, err := HeavyAdapt(events, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.FN != 0 || res.FP != 0 {
		t.Fatalf("residual errors: %+v", res)
	}
	if len(res.Conditions) != 1 || res.Conditions[0].Event != perf.CacheMisses {
		t.Fatalf("conditions = %+v, want cache-misses only", res.Conditions)
	}
}

func TestAdaptationDataCollection(t *testing.T) {
	c := corpus.Build()
	d, _ := runHD(t, c, "K9-Mail", Config{CollectAdaptation: true}, 11, 100)
	data := d.AdaptationData()
	if len(data) == 0 {
		t.Fatal("no adaptation data collected")
	}
	bugs, uis := 0, 0
	for _, r := range data {
		if len(r.Values) != 3 {
			t.Fatalf("reading has %d values", len(r.Values))
		}
		if r.IsBug {
			bugs++
		} else {
			uis++
		}
	}
	if bugs == 0 || uis == 0 {
		t.Fatalf("labels lack variety: bugs=%d uis=%d", bugs, uis)
	}
}
