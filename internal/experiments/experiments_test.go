package experiments

import (
	"strings"
	"testing"

	"hangdoctor/internal/simclock"
)

// testCtx caches one small-scale context across tests in this package: the
// experiments are deterministic, and several of them share the expensive
// sample-collection step.
var testCtx = NewContext(42, SmallScale())

func TestTextTableRender(t *testing.T) {
	tbl := TextTable{
		Title:  "T",
		Header: []string{"a", "bb"},
		Notes:  []string{"n"},
	}
	tbl.Add("xxx", "y")
	out := tbl.Render()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "xxx  y") ||
		!strings.Contains(out, "note: n") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestTrainingSetComposition(t *testing.T) {
	items := testCtx.Training
	bugs, uis := 0, 0
	for _, it := range items {
		if it.IsBug() {
			bugs++
		} else {
			uis++
		}
	}
	if bugs != 10 {
		t.Errorf("training bugs = %d, want 10 (paper §3.3.1)", bugs)
	}
	if uis != 11 {
		t.Errorf("training UI items = %d, want 11", uis)
	}
	// Validation set is disjoint from the training set: training bugs are
	// offline-visible, validation bugs are not.
	for _, it := range items {
		if it.IsBug() && testCtx.BaselineMissedOffline[it.BugID] {
			t.Errorf("training bug %s is in the validation set", it.BugID)
		}
	}
	if got := len(testCtx.BaselineMissedOffline); got != 23 {
		t.Errorf("validation set size = %d, want 23", got)
	}
}

func TestTable1(t *testing.T) {
	r := RunTable1(testCtx)
	if len(r.Table.Rows) != 8 {
		t.Fatalf("Table 1 rows = %d, want 8", len(r.Table.Rows))
	}
}

func TestTable2Shape(t *testing.T) {
	r, err := RunTable2(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	t5, t1s := 5*simclock.Second, simclock.Second
	t500, t100 := 500*simclock.Millisecond, 100*simclock.Millisecond
	// The ANR-style 5s timeout finds nothing.
	if r.TotalTP(t5) != 0 || r.TotalFP(t5) != 0 {
		t.Errorf("5s timeout found TP=%d FP=%d, want 0/0", r.TotalTP(t5), r.TotalFP(t5))
	}
	// The 100ms timeout finds every bug hang, plus many false positives.
	if r.TotalTP(t100) != r.Hangs {
		t.Errorf("100ms TP = %d, want all %d hangs", r.TotalTP(t100), r.Hangs)
	}
	if r.TotalFP(t100) == 0 {
		t.Error("100ms timeout found no false positives")
	}
	// Monotone in the timeout.
	if !(r.TotalTP(t1s) <= r.TotalTP(t500) && r.TotalTP(t500) < r.TotalTP(t100)) {
		t.Errorf("TP not monotone: %d, %d, %d", r.TotalTP(t1s), r.TotalTP(t500), r.TotalTP(t100))
	}
	// Seadroid's >1s bug is the only one surviving the 1s timeout; FrostWire
	// joins at 500ms.
	if r.TP["1.000s"]["Seadroid"] == 0 {
		t.Error("Seadroid bug not caught at 1s")
	}
	if r.TP["500.00ms"]["FrostWire"] == 0 {
		t.Error("FrostWire bug not caught at 500ms")
	}
	if r.TP["1.000s"]["FrostWire"] != 0 {
		t.Error("FrostWire bug should not survive the 1s timeout")
	}
}

func TestTable3Shape(t *testing.T) {
	r, err := RunTable3(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	// Context switches top the difference ranking (the paper's headline).
	if r.DiffRank[0].Name != "context-switches" {
		t.Errorf("diff rank #1 = %s, want context-switches", r.DiffRank[0].Name)
	}
	// Difference mode beats main-thread-only on average.
	if r.DiffTop10 <= r.MainTop10 {
		t.Errorf("diff avg %.3f not above main-only avg %.3f", r.DiffTop10, r.MainTop10)
	}
	// The paper's filter events all carry meaningful correlation in diff mode.
	for _, want := range []string{"context-switches", "task-clock", "page-faults"} {
		found := false
		for _, rk := range r.DiffRank {
			if rk.Name == want && rk.Coeff > 0.3 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s missing or weak in diff ranking", want)
		}
	}
	// Kernel scheduling events dominate the top of the diff ranking.
	kernelTop := 0
	for _, rk := range r.DiffRank[:5] {
		switch rk.Name {
		case "context-switches", "task-clock", "cpu-clock", "cpu-migrations", "page-faults", "minor-faults", "major-faults":
			kernelTop++
		}
	}
	if kernelTop < 3 {
		t.Errorf("only %d kernel events in diff top-5", kernelTop)
	}
}

func TestTable4Stability(t *testing.T) {
	r, err := RunTable4(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	// Table 4's claim: the top of the ranking survives subsampling.
	if r.Overlap5[0] < 4 {
		t.Errorf("75%% subsample top-5 overlap = %d/5", r.Overlap5[0])
	}
	if r.Overlap5[1] < 3 {
		t.Errorf("50%% subsample top-5 overlap = %d/5", r.Overlap5[1])
	}
	if r.Sub75[0].Name != "context-switches" || r.Sub50[0].Name != "context-switches" {
		t.Errorf("context-switches not #1 in subsamples: %s / %s", r.Sub75[0].Name, r.Sub50[0].Name)
	}
}

func TestFig4FilterDesign(t *testing.T) {
	r, err := RunFig4(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	// The derived filter catches every training bug.
	if r.Selection.FalseNegatives != 0 {
		t.Errorf("derived filter FN = %d", r.Selection.FalseNegatives)
	}
	// And prunes at least half the UI samples (paper: 64%).
	pruned := float64(r.Selection.TrueNegatives) /
		float64(r.Selection.TrueNegatives+r.Selection.FalsePositives)
	if pruned < 0.5 {
		t.Errorf("FP pruning = %.2f, want >= 0.5", pruned)
	}
	// Few events suffice.
	if n := len(r.Selection.Conditions); n == 0 || n > 3 {
		t.Errorf("selected %d conditions, want 1..3", n)
	}
	// First selected condition is the context-switch difference with a
	// near-zero threshold (paper: "positive context-switch difference").
	first := r.Selection.Conditions[0]
	if first.Name != "context-switches" {
		t.Errorf("first condition = %s", first.Name)
	}
	if first.Threshold < -15 || first.Threshold > 15 {
		t.Errorf("ctx threshold = %v, want near zero", first.Threshold)
	}
	// The paper's ctx>0 condition splits the classes well on our samples.
	sp := r.Split["context-switches"]
	if sp[0] < 0.6 || sp[1] < 0.6 {
		t.Errorf("ctx>0 split = %.2f/%.2f, want both >= 0.6", sp[0], sp[1])
	}
}

func TestTable5Headline(t *testing.T) {
	r, err := RunTable5(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	// At small scale nearly every seeded bug is found; no clean app is ever
	// falsely reported.
	if r.TotalBD < 30 {
		t.Errorf("BD = %d, want >= 30 of 34 at small scale", r.TotalBD)
	}
	if r.TotalMO < 20 {
		t.Errorf("MO = %d, want >= 20 of 23 at small scale", r.TotalMO)
	}
	if r.TotalBD > 34 || r.TotalMO > 23 {
		t.Errorf("BD/MO overcount: %d/%d", r.TotalBD, r.TotalMO)
	}
	if r.FalseApps != 0 {
		t.Errorf("clean apps falsely reported: %d", r.FalseApps)
	}
}

func TestTable6Signatures(t *testing.T) {
	r, err := RunTable6(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total[0] < 19 {
		t.Errorf("new bugs found = %d, want >= 19 of 23 at small scale", r.Total[0])
	}
	// Every found bug is recognized by at least one counter, and no single
	// counter covers everything (the paper's point).
	for _, name := range []string{"Omni-Notes", "QKSMS"} {
		cell := r.PerApp[name]
		if cell[0] == 0 {
			t.Errorf("%s: no bugs found", name)
		}
	}
	if omni := r.PerApp["Omni-Notes"]; omni[1] != 0 || omni[3] != omni[0] {
		t.Errorf("Omni-Notes signature = %v, want page-faults only", omni)
	}
	if qk := r.PerApp["QKSMS"]; qk[3] != 0 || qk[2] == 0 {
		t.Errorf("QKSMS signature = %v, want task-clock without page-faults", qk)
	}
	if r.Total[1] == r.Total[0] && r.Total[2] == r.Total[0] && r.Total[3] == r.Total[0] {
		t.Error("every counter detected every bug; signatures collapsed")
	}
}

func TestFig1Timeline(t *testing.T) {
	r, err := RunFig1(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if r.BuggyMean < 300*simclock.Millisecond || r.BuggyMean > 650*simclock.Millisecond {
		t.Errorf("buggy mean = %v, want ~423ms band", r.BuggyMean)
	}
	if r.FixedMean >= r.BuggyMean {
		t.Errorf("fixed (%v) not faster than buggy (%v)", r.FixedMean, r.BuggyMean)
	}
	if r.OpenShareBug < 0.35 {
		t.Errorf("camera.open share = %.2f, want dominant", r.OpenShareBug)
	}
}

func TestFig2bReport(t *testing.T) {
	r, err := RunFig2b(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Report.Len() != 3 {
		t.Fatalf("AndStatus report entries = %d, want 3 (its three bugs)", r.Report.Len())
	}
	for _, e := range r.Report.Entries() {
		if e.Devices.Len() < 2 {
			t.Errorf("entry %s seen on %d devices, want >= 2", e.RootCause, e.Devices.Len())
		}
	}
}

func TestFig5Series(t *testing.T) {
	r, err := RunFig5(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	// Bug execution: the main thread dominates context switches throughout.
	var bugMain, bugRender int64
	for _, w := range r.Bug {
		bugMain += w.Main
		bugRender += w.Render
	}
	if bugMain <= bugRender {
		t.Errorf("bug series: main %d <= render %d", bugMain, bugRender)
	}
	// UI execution: bug-like early, not overall (the Figure 5 lesson).
	if !r.UIEarlyPositive {
		t.Error("UI series not bug-like in its first window")
	}
	if r.UITotalPositive {
		t.Error("UI series main-dominant over the full action")
	}
}

func TestFig6Walkthrough(t *testing.T) {
	r, err := RunFig6(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Detection.RootCause != "org.htmlcleaner.HtmlCleaner.clean" {
		t.Fatalf("root = %s", r.Detection.RootCause)
	}
	if r.Detection.Occurrence < 0.5 {
		t.Errorf("occurrence = %.2f, want high (paper: 0.96)", r.Detection.Occurrence)
	}
	if r.SCheckExec < 0 || r.DiagnoseExec <= r.SCheckExec {
		t.Errorf("phases out of order: s-check exec %d, diagnose exec %d", r.SCheckExec, r.DiagnoseExec)
	}
	if r.Detection.File != "HtmlCleaner.java" || r.Detection.Line != 25 {
		t.Errorf("location = %s:%d", r.Detection.File, r.Detection.Line)
	}
}

func TestFig7StatePruning(t *testing.T) {
	r, err := RunFig7(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	// Bug actions converge to HangBug; UI actions to Normal.
	if got := r.FinalStates["K9-Mail/Open Email"]; got.String() != "HangBug" {
		t.Errorf("Open Email final = %v", got)
	}
	for _, ui := range []string{"K9-Mail/Folders", "K9-Mail/Inbox"} {
		if got := r.FinalStates[ui]; got.String() == "HangBug" {
			t.Errorf("%s converged to HangBug", ui)
		}
	}
	// UI trace collections are bounded (at most a handful before pruning).
	if r.TracedUIActions > 6 {
		t.Errorf("Diagnoser traced UI actions %d times", r.TracedUIActions)
	}
}

func TestFig8Comparison(t *testing.T) {
	r, err := RunFig8(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	// Paper's Figure 8 shape: HD keeps most of TI's recall at a fraction of
	// its false positives; UTL floods; UTH misses; HD's overhead is below
	// TI's.
	if r.AvgNormTP["HD"] < 0.6 {
		t.Errorf("HD TP/TI = %.2f, want >= 0.6 (paper ~0.8)", r.AvgNormTP["HD"])
	}
	if r.AvgNormFP["HD"] > 0.15 {
		t.Errorf("HD FP/TI = %.2f, want <= 0.15 (paper <0.1)", r.AvgNormFP["HD"])
	}
	if r.AvgNormFP["UTL"] < 2 {
		t.Errorf("UTL FP/TI = %.2f, want flood (paper 8-22x)", r.AvgNormFP["UTL"])
	}
	if r.AvgNormTP["UTH"] > 0.85 {
		t.Errorf("UTH TP/TI = %.2f, want misses (paper ~0.38)", r.AvgNormTP["UTH"])
	}
	if !(r.AvgOverhead["HD"] < r.AvgOverhead["TI"]) {
		t.Errorf("HD overhead %.2f not below TI %.2f", r.AvgOverhead["HD"], r.AvgOverhead["TI"])
	}
	if !(r.AvgOverhead["UTL"] > r.AvgOverhead["UTH"] && r.AvgOverhead["UTH"] > r.AvgOverhead["TI"]) {
		t.Errorf("overhead ordering broken: UTL=%.2f UTH=%.2f TI=%.2f",
			r.AvgOverhead["UTL"], r.AvgOverhead["UTH"], r.AvgOverhead["TI"])
	}
	if !(r.AvgOverhead["UTH+TI"] < r.AvgOverhead["TI"]) {
		t.Errorf("UTH+TI overhead %.2f not below TI %.2f", r.AvgOverhead["UTH+TI"], r.AvgOverhead["TI"])
	}
}

func TestAblationShape(t *testing.T) {
	r, err := RunAblations(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	full := r.Rows["HD (full)"]
	p1 := r.Rows["phase1-only"]
	p2 := r.Rows["phase2-only"]
	ctxOnly := r.Rows["ctx-only"]
	if p1.FP <= full.FP {
		t.Errorf("phase1-only FP %d not above full %d (no Diagnoser confirmation)", p1.FP, full.FP)
	}
	if p2.FP <= full.FP {
		t.Errorf("phase2-only FP %d not above full %d", p2.FP, full.FP)
	}
	if p2.Overhead <= full.Overhead {
		t.Errorf("phase2-only overhead %.2f not above full %.2f", p2.Overhead, full.Overhead)
	}
	if ctxOnly.FN <= full.FN {
		t.Errorf("ctx-only FN %d not above full %d (page-fault bugs missed)", ctxOnly.FN, full.FN)
	}
}

func TestRegistryRunsByName(t *testing.T) {
	res, err := Run(testCtx, "table1")
	if _, ok := res.(*Table1); err != nil || !ok {
		t.Fatalf("Run(table1) = %v, %v", res, err)
	}
	if _, err := Run(testCtx, "nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Registry covers every paper artifact.
	names := map[string]bool{}
	for _, e := range Registry() {
		names[e.Name] = true
	}
	for _, want := range []string{"table1", "table2", "table3", "table4", "table5", "table6",
		"fig1", "fig2b", "fig4", "fig5", "fig6", "fig7", "fig8", "ablation"} {
		if !names[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestTestbedMissesEnvironmentGatedBugs(t *testing.T) {
	r, err := RunTestbed(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalLab >= r.TotalWild {
		t.Errorf("test bed found %d bugs, wild %d; the wild deployment must win (§4.6)",
			r.TotalLab, r.TotalWild)
	}
	if r.TotalWild < 30 {
		t.Errorf("wild deployment found only %d bugs", r.TotalWild)
	}
	// The externally powered test bed can afford phase-2-only at lower
	// per-run overhead pressure (shorter campaign, no battery constraint).
	if r.LabOverheadPct <= 0 {
		t.Error("lab overhead not accounted")
	}
}

func TestFixVerify(t *testing.T) {
	r, err := RunFixVerify(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(fixVerifyTargets) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.BugHangsBefore == 0 {
			t.Errorf("%s: no bug hangs before the fix; nothing verified", row.BugID)
		}
		if row.BugHangsAfter != 0 {
			t.Errorf("%s: %d bug hangs remain after the fix", row.BugID, row.BugHangsAfter)
		}
		if row.MeanRTAfterMs >= row.MeanRTBeforeMs {
			t.Errorf("%s: mean response did not improve (%.0f -> %.0f ms)",
				row.BugID, row.MeanRTBeforeMs, row.MeanRTAfterMs)
		}
	}
}

func TestLongitudinalStudy(t *testing.T) {
	r, err := RunLongitudinal(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Latencies) == 0 {
		t.Fatal("no bugs diagnosed in the longitudinal study")
	}
	// Every studied app contributes at least one diagnosed bug, and fleet
	// detection happens well inside the study horizon.
	for _, lat := range r.Latencies {
		if lat.FirstDay < 0 || lat.FirstDay >= LongitudinalDays {
			t.Errorf("%s: fleet first day = %d", lat.BugID, lat.FirstDay)
		}
		if lat.UsersFound == 0 {
			t.Errorf("%s: found by no device", lat.BugID)
		}
	}
	if r.MedianFirstDay >= LongitudinalDays/2 {
		t.Errorf("median device detection day = %.0f, suspiciously late", r.MedianFirstDay)
	}
}

func TestThresholdSweep(t *testing.T) {
	r, err := RunThresholdSweep(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	for name, curve := range r.Curves {
		if len(curve) < 5 {
			t.Fatalf("%s: curve too small", name)
		}
		// TPR and FPR are monotone non-increasing in the threshold.
		for i := 1; i < len(curve); i++ {
			if curve[i].Threshold < curve[i-1].Threshold {
				t.Fatalf("%s: thresholds not sorted", name)
			}
			if curve[i].TPR > curve[i-1].TPR+1e-9 || curve[i].FPR > curve[i-1].FPR+1e-9 {
				t.Fatalf("%s: rates not monotone at %d", name, i)
			}
		}
		// Extremes: lowest threshold flags everything, highest nothing.
		if curve[0].TPR != 1 || curve[0].FPR != 1 {
			t.Fatalf("%s: lowest threshold point = %+v", name, curve[0])
		}
		last := curve[len(curve)-1]
		if last.TPR != 0 || last.FPR != 0 {
			t.Fatalf("%s: highest threshold point = %+v", name, last)
		}
	}
	// The context-switch event separates well at its best threshold, and the
	// paper's ctx>0 choice is close to optimal on our samples.
	bestCtx := r.BestThreshold["context-switches"]
	paperCtx := r.PaperPoint["context-switches"]
	if paperCtx.TPR-paperCtx.FPR < 0.4 {
		t.Errorf("paper ctx>0 point weak: %+v", paperCtx)
	}
	if bestCtx < -30 || bestCtx > 30 {
		t.Errorf("best ctx threshold = %v, far from the paper's 0", bestCtx)
	}
}

func TestDeviceGenerality(t *testing.T) {
	r, err := RunDeviceGenerality(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.FoundPerDevice) != 3 {
		t.Fatalf("devices = %d", len(r.FoundPerDevice))
	}
	// The unchanged filter works on every device: each finds the large
	// majority of the validation set, and most bugs are found everywhere.
	for name, found := range r.FoundPerDevice {
		if len(found) < 19 {
			t.Errorf("%s found only %d/23 validation bugs", name, len(found))
		}
	}
	if r.CommonBugs < 17 {
		t.Errorf("only %d bugs found on every device", r.CommonBugs)
	}
}

func TestImpactNegligibleForHD(t *testing.T) {
	r, err := RunImpact(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	var hd, utl *ImpactRow
	for i := range r.Rows {
		switch r.Rows[i].Detector {
		case "HD":
			hd = &r.Rows[i]
		case "UTL":
			utl = &r.Rows[i]
		}
	}
	if hd == nil || utl == nil {
		t.Fatal("rows missing")
	}
	// §4.5: HD's responsiveness impact is negligible (<0.5% mean inflation);
	// the heavy sampler is measurably worse.
	if hd.InflationPct > 0.5 {
		t.Errorf("HD inflation = %.2f%%", hd.InflationPct)
	}
	if utl.InflationPct <= hd.InflationPct {
		t.Errorf("UTL inflation %.2f%% not above HD %.2f%%", utl.InflationPct, hd.InflationPct)
	}
}

func TestSeedRobustness(t *testing.T) {
	r, err := RunSeedRobustness(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seeds != 6 {
		t.Fatalf("seeds = %d", r.Seeds)
	}
	// The headline properties hold on every seed, not just the default one.
	if r.Recall.Min < 0.5 {
		t.Errorf("worst-seed recall = %.2f", r.Recall.Min)
	}
	if r.FPShare.Max > 0.4 {
		t.Errorf("worst-seed FP share = %.2f", r.FPShare.Max)
	}
	if r.BugsFound.Min < 6 {
		t.Errorf("worst-seed distinct bugs = %.0f of 9 seeded", r.BugsFound.Min)
	}
}

// TestEveryRegisteredExperimentRuns regenerates every artifact end to end on
// a fresh context — the integration test behind cmd/experiments' default
// "run everything" mode.
func TestEveryRegisteredExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep skipped in -short mode")
	}
	ctx := NewContext(7, SmallScale())
	seen := map[string]bool{}
	for _, e := range Registry() {
		res, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(res.Render()) < 40 {
			t.Errorf("%s: suspiciously short artifact", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate registry name %s", e.Name)
		}
		seen[e.Name] = true
	}
	if len(seen) < 20 {
		t.Errorf("registry has only %d experiments", len(seen))
	}
}
