package corpus

import (
	"fmt"
	"testing"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/simclock"
)

// asyncBugs returns the seeded bugs of the async slice.
func asyncBugs(c *Corpus) []*app.Bug {
	var out []*app.Bug
	for _, a := range c.Async {
		out = append(out, a.Bugs...)
	}
	return out
}

// checkInvariants validates global corpus invariants and returns an error
// describing the first violation.
func checkInvariants(c *Corpus) error {
	if len(c.Apps) != 114 {
		return fmt.Errorf("corpus has %d apps, want 114", len(c.Apps))
	}
	if len(c.Table5) != 16 {
		return fmt.Errorf("corpus has %d Table-5 apps, want 16", len(c.Table5))
	}
	if len(c.Motivation) != 8 {
		return fmt.Errorf("corpus has %d motivation apps, want 8", len(c.Motivation))
	}
	if got := len(c.Table5Bugs()); got != 34 {
		return fmt.Errorf("Table-5 bugs = %d, want 34", got)
	}
	if got := len(c.MissedOfflineBugs()); got != 23 {
		return fmt.Errorf("missed-offline bugs = %d, want 23", got)
	}
	if len(c.Async) != 9 {
		return fmt.Errorf("corpus has %d async apps, want 9", len(c.Async))
	}
	if got := len(asyncBugs(c)); got != 6 {
		return fmt.Errorf("async bugs = %d, want 6", got)
	}
	asyncBugApps, asyncClean := 0, 0
	for _, a := range c.Async {
		if !a.HasAsync() {
			return fmt.Errorf("async app %s has no async ops", a.Name)
		}
		if len(a.Bugs) > 0 {
			asyncBugApps++
		} else {
			asyncClean++
		}
	}
	if asyncBugApps != 6 || asyncClean != 3 {
		return fmt.Errorf("async slice = %d bug apps + %d controls, want 6 + 3", asyncBugApps, asyncClean)
	}
	names := map[string]bool{}
	for _, a := range c.Apps {
		if names[a.Name] {
			return fmt.Errorf("duplicate app name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, a := range c.Async {
		if names[a.Name] {
			return fmt.Errorf("duplicate app name %q", a.Name)
		}
		names[a.Name] = true
	}
	ids := map[string]bool{}
	for _, b := range append(c.AllBugs(), asyncBugs(c)...) {
		if ids[b.ID] {
			return fmt.Errorf("duplicate bug ID %q", b.ID)
		}
		ids[b.ID] = true
	}
	return nil
}

func TestBuildInvariants(t *testing.T) {
	c := Build()
	if err := checkInvariants(c); err != nil {
		t.Fatal(err)
	}
}

func TestPerAppBugCounts(t *testing.T) {
	c := Build()
	// Paper Table 5: BD (MO) per app.
	want := map[string][2]int{
		"AndStatus": {3, 2}, "DashClock": {1, 0}, "CycleStreets": {4, 3},
		"K9-Mail": {2, 2}, "Omni-Notes": {3, 3}, "OwnTracks": {1, 0},
		"QKSMS": {3, 3}, "StickerCamera": {3, 0}, "AntennaPod": {3, 2},
		"Merchant": {1, 1}, "UOITDC Booking": {2, 2}, "SageMath": {3, 2},
		"RadioDroid": {2, 1}, "Git@OSC": {1, 1}, "Lens-Launcher": {1, 0},
		"SkyTube": {1, 1},
	}
	for name, exp := range want {
		a := c.MustApp(name)
		if got := len(a.Bugs); got != exp[0] {
			t.Errorf("%s: BD = %d, want %d", name, got, exp[0])
		}
		missed := 0
		for _, b := range a.Bugs {
			if !c.OfflineVisible(b) {
				missed++
			}
		}
		if missed != exp[1] {
			t.Errorf("%s: MO = %d, want %d", name, missed, exp[1])
		}
	}
	if got := len(c.KnownBugs()); got != 11 {
		t.Errorf("known (offline-visible) bugs = %d, want 11", got)
	}
}

func TestSageMathNestingVisibleThroughOpenLibrary(t *testing.T) {
	c := Build()
	sm := c.MustApp("SageMath")
	var nested *app.Bug
	for _, b := range sm.Bugs {
		if b.ID == "SageMath/84-cupboardGet" {
			nested = b
		}
	}
	if nested == nil {
		t.Fatal("cupboard bug missing")
	}
	vis := nested.Op.VisibleAPIs()
	if len(vis) != 2 {
		t.Fatalf("visible chain length = %d, want 2 (cupboard.get + insertWithOnConflict)", len(vis))
	}
	if !c.OfflineVisible(nested) {
		t.Fatal("nested known API through open library should be offline-visible")
	}
}

func TestK9CleanMissedOffline(t *testing.T) {
	c := Build()
	k9 := c.MustApp("K9-Mail")
	for _, b := range k9.Bugs {
		if c.OfflineVisible(b) {
			t.Errorf("K9 bug %s should be missed offline", b.ID)
		}
	}
	// After Hang Doctor's feedback, the offline tool would catch clean.
	c.Registry.AddKnownBlocking("org.htmlcleaner.HtmlCleaner.clean")
	found := false
	for _, b := range k9.Bugs {
		if b.RootCauseKey() == "org.htmlcleaner.HtmlCleaner.clean" && c.OfflineVisible(b) {
			found = true
		}
	}
	if !found {
		t.Fatal("feedback loop did not make clean offline-visible")
	}
}

func TestTraceDeterminismAndWeighting(t *testing.T) {
	c := Build()
	a := c.MustApp("K9-Mail")
	t1 := Trace(a, 7, 200)
	t2 := Trace(a, 7, 200)
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace diverged at %d", i)
		}
	}
	counts := map[string]int{}
	for _, act := range t1 {
		counts[act.Name]++
	}
	// Every action appears; high-weight actions appear more often than the
	// lowest-weight one.
	if len(counts) != len(a.Actions) {
		t.Fatalf("trace missing actions: %v", counts)
	}
	if counts["Inbox"] <= counts["Download Attachment"] {
		t.Fatalf("weighting ineffective: %v", counts)
	}
}

func TestRunTraceProducesHangsAndBenignExecutions(t *testing.T) {
	c := Build()
	a := c.MustApp("K9-Mail")
	s, err := app.NewSession(a, app.LGV10(), 99)
	if err != nil {
		t.Fatal(err)
	}
	execs := RunTrace(s, Trace(a, 3, 60), simclock.Second)
	if len(execs) != 60 {
		t.Fatalf("got %d execs", len(execs))
	}
	bugHangs, uiHangs, quick := 0, 0, 0
	for _, e := range execs {
		hang := e.ResponseTime() > 100*simclock.Millisecond
		switch {
		case hang && e.BugCaused(100*simclock.Millisecond) != nil:
			bugHangs++
		case hang:
			uiHangs++
		default:
			quick++
		}
	}
	if bugHangs == 0 || uiHangs == 0 || quick == 0 {
		t.Fatalf("trace lacks variety: bugHangs=%d uiHangs=%d quick=%d", bugHangs, uiHangs, quick)
	}
}

func TestMotivationHangDurationBands(t *testing.T) {
	// Table 2 structure: FrostWire's bug hang must fall in (500ms, 1s],
	// Seadroid's in (1s, 5s], and a typical short bug (WebSMS) in
	// (100ms, 500ms].
	c := Build()
	check := func(appName, actName string, lo, hi simclock.Duration) {
		t.Helper()
		a := c.MustApp(appName)
		s, err := app.NewSession(a, app.LGV10(), 5)
		if err != nil {
			t.Fatal(err)
		}
		var hangs []simclock.Duration
		act := a.MustAction(actName)
		for i := 0; i < 30; i++ {
			e := s.Perform(act)
			if e.BugCaused(100*simclock.Millisecond) != nil {
				hangs = append(hangs, e.ResponseTime())
			}
			s.Idle(simclock.Second)
		}
		if len(hangs) == 0 {
			t.Fatalf("%s/%s: bug never manifested", appName, actName)
		}
		in := 0
		for _, h := range hangs {
			if h > lo && h <= hi {
				in++
			}
		}
		if in*2 < len(hangs) {
			t.Errorf("%s/%s: only %d/%d hangs in (%v, %v]: %v", appName, actName, in, len(hangs), lo, hi, hangs)
		}
	}
	check("FrostWire", "Open Library", 500*simclock.Millisecond, simclock.Second)
	check("Seadroid", "Sync Library", simclock.Second, 5*simclock.Second)
	check("WebSMS", "Open Threads", 100*simclock.Millisecond, 500*simclock.Millisecond)
}

func TestABetterCameraPair(t *testing.T) {
	c := Build()
	buggy, fixed := c.ABetterCameraPair()
	run := func(a *app.App) simclock.Duration {
		s, err := app.NewSession(a, app.LGV10(), 3)
		if err != nil {
			t.Fatal(err)
		}
		var total simclock.Duration
		const n = 10
		for i := 0; i < n; i++ {
			total += s.Perform(a.MustAction("Resume")).ResponseTime()
			s.Idle(simclock.Second)
		}
		return total / n
	}
	rtBuggy, rtFixed := run(buggy), run(fixed)
	// Figure 1: 423 ms buggy vs 160 ms fixed. Shape: fixed is much faster
	// and drops below the buggy camera-open time.
	if rtBuggy < 300*simclock.Millisecond || rtBuggy > 650*simclock.Millisecond {
		t.Errorf("buggy resume = %v, want ~423ms band", rtBuggy)
	}
	if rtFixed < 80*simclock.Millisecond || rtFixed > 280*simclock.Millisecond {
		t.Errorf("fixed resume = %v, want ~160ms band", rtFixed)
	}
	if rtFixed >= rtBuggy {
		t.Errorf("fixed (%v) not faster than buggy (%v)", rtFixed, rtBuggy)
	}
}

func TestGeneratedAppsAreClean(t *testing.T) {
	c := Build()
	n := 0
	for _, a := range c.Apps[len(c.Table5)+len(c.Motivation):] {
		n++
		if len(a.Bugs) != 0 {
			t.Errorf("generated app %s has bugs", a.Name)
		}
		if len(a.Actions) < 3 {
			t.Errorf("generated app %s has %d actions", a.Name, len(a.Actions))
		}
	}
	if n != 90 {
		t.Fatalf("generated apps = %d, want 90", n)
	}
}

func TestBuildIsDeterministic(t *testing.T) {
	a, b := Build(), Build()
	if len(a.Apps) != len(b.Apps) {
		t.Fatal("corpus size differs between builds")
	}
	for i := range a.Apps {
		if a.Apps[i].Name != b.Apps[i].Name || a.Apps[i].Commit != b.Apps[i].Commit {
			t.Fatalf("app %d differs: %s/%s vs %s/%s", i,
				a.Apps[i].Name, a.Apps[i].Commit, b.Apps[i].Name, b.Apps[i].Commit)
		}
	}
}

func TestFixedAppRemovesBugHangs(t *testing.T) {
	c := Build()
	orig := c.MustApp("K9-Mail")
	fixed, err := FixedApp(orig, "K9-Mail/1007-clean")
	if err != nil {
		t.Fatal(err)
	}
	// The fixed app keeps the other bug but not the fixed one.
	if len(fixed.Bugs) != len(orig.Bugs)-1 {
		t.Fatalf("fixed app has %d bugs, want %d", len(fixed.Bugs), len(orig.Bugs)-1)
	}
	for _, b := range fixed.Bugs {
		if b.ID == "K9-Mail/1007-clean" {
			t.Fatal("fixed bug still present")
		}
		if b.App != fixed {
			t.Fatal("cloned bug not relinked to the fixed app")
		}
	}
	// The original app's ground truth is untouched.
	if len(orig.Bugs) != 2 || orig.Bugs[0].App != orig {
		t.Fatal("FixedApp mutated the original")
	}
	// Driving the previously buggy action no longer produces bug hangs.
	s, err := app.NewSession(fixed, app.LGV10(), 7)
	if err != nil {
		t.Fatal(err)
	}
	act := fixed.MustAction("Open Email")
	for i := 0; i < 25; i++ {
		exec := s.Perform(act)
		if exec.BugCaused(100*simclock.Millisecond) != nil {
			t.Fatal("fixed action still manifests the bug")
		}
		if exec.ResponseTime() > 150*simclock.Millisecond {
			t.Fatalf("fixed action still hangs: %v", exec.ResponseTime())
		}
		s.Idle(simclock.Second)
	}
}

func TestFixedAppUnknownBug(t *testing.T) {
	c := Build()
	if _, err := FixedApp(c.MustApp("K9-Mail"), "no/such-bug"); err == nil {
		t.Fatal("unknown bug accepted")
	}
}

func TestMonkeyTraceUniform(t *testing.T) {
	c := Build()
	a := c.MustApp("K9-Mail")
	tr := MonkeyTrace(a, 5, 1000)
	counts := map[string]int{}
	for _, act := range tr {
		counts[act.Name]++
	}
	if len(counts) != len(a.Actions) {
		t.Fatalf("monkey missed actions: %v", counts)
	}
	// Uniform picks: every action within a loose band of 1000/len.
	expect := 1000 / len(a.Actions)
	for name, n := range counts {
		if n < expect/2 || n > expect*2 {
			t.Errorf("action %s picked %d times, expected ~%d", name, n, expect)
		}
	}
	// Deterministic.
	tr2 := MonkeyTrace(a, 5, 1000)
	for i := range tr {
		if tr[i] != tr2[i] {
			t.Fatal("monkey trace not deterministic")
		}
	}
}

func TestEnvRichnessGatesManifestation(t *testing.T) {
	c := Build()
	a := c.MustApp("K9-Mail")
	run := func(rich float64) int {
		dev := app.LGV10()
		dev.EnvRichness = rich
		s, err := app.NewSession(a, dev, 9)
		if err != nil {
			t.Fatal(err)
		}
		act := a.MustAction("Open Email")
		hangs := 0
		for i := 0; i < 40; i++ {
			if s.Perform(act).BugCaused(100*simclock.Millisecond) != nil {
				hangs++
			}
			s.Idle(simclock.Second)
		}
		return hangs
	}
	full, poor := run(1), run(0.15)
	if poor >= full {
		t.Fatalf("impoverished environment manifested %d >= %d", poor, full)
	}
	if full == 0 {
		t.Fatal("bug never manifested at full richness")
	}
}

func TestLongitudinalTraceShape(t *testing.T) {
	c := Build()
	a := c.MustApp("K9-Mail")
	p := DefaultProfiles()[1] // regular
	const days = 7
	tr := LongitudinalTrace(a, p, 3, days)
	if len(tr) == 0 {
		t.Fatal("empty longitudinal trace")
	}
	// Sorted by time, all within the horizon, all inside waking hours.
	for i, ta := range tr {
		if i > 0 && ta.At < tr[i-1].At {
			t.Fatalf("trace not sorted at %d", i)
		}
		day := int64(ta.At) / int64(simclock.Day)
		if day < 0 || day >= days {
			t.Fatalf("action outside horizon: day %d", day)
		}
		hourNs := int64(ta.At) % int64(simclock.Day)
		hour := int(hourNs / int64(simclock.Hour))
		if hour < p.WakeHour-1 || hour > p.SleepHour+1 {
			t.Fatalf("action at hour %d outside waking window [%d,%d]", hour, p.WakeHour, p.SleepHour)
		}
	}
	// Rough volume: sessions*actions per day within a loose band.
	perDay := float64(len(tr)) / days
	expect := p.SessionsPerDay * p.ActionsPerSession
	if perDay < expect/3 || perDay > expect*3 {
		t.Fatalf("actions/day = %.1f, expected ~%.1f", perDay, expect)
	}
	// Deterministic.
	tr2 := LongitudinalTrace(a, p, 3, days)
	for i := range tr {
		if tr[i] != tr2[i] {
			t.Fatal("longitudinal trace not deterministic")
		}
	}
}

func TestRunLongitudinalAdvancesTime(t *testing.T) {
	c := Build()
	a := c.MustApp("DashClock")
	p := DefaultProfiles()[0]
	tr := LongitudinalTrace(a, p, 11, 3)
	s, err := app.NewSession(a, app.LGV10(), 11)
	if err != nil {
		t.Fatal(err)
	}
	execs := RunLongitudinal(s, tr)
	if len(execs) != len(tr) {
		t.Fatalf("execs = %d, want %d", len(execs), len(tr))
	}
	for i := range execs {
		if execs[i].Start < tr[i].At {
			t.Fatalf("action %d started before its slot", i)
		}
	}
	// The session clock ends in the final day.
	if got := int64(s.Clk.Now()) / int64(simclock.Day); got < 2 {
		t.Fatalf("clock ended on day %d, want >= 2", got)
	}
}

func TestProfilesDistinct(t *testing.T) {
	profs := DefaultProfiles()
	if len(profs) != 3 {
		t.Fatalf("profiles = %d", len(profs))
	}
	if !(profs[0].SessionsPerDay < profs[1].SessionsPerDay && profs[1].SessionsPerDay < profs[2].SessionsPerDay) {
		t.Fatal("profiles not ordered light < regular < power")
	}
}

func TestMultiEventActionResponseSemantics(t *testing.T) {
	// AntennaPod's Open Episode posts two input events; the action response
	// time is the max event response time (§2.2), so the quick UI event
	// must not mask the chapter-extraction hang.
	c := Build()
	a := c.MustApp("AntennaPod")
	act := a.MustAction("Open Episode")
	if len(act.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(act.Events))
	}
	s, err := app.NewSession(a, app.LGV10(), 13)
	if err != nil {
		t.Fatal(err)
	}
	sawHang := false
	for i := 0; i < 30; i++ {
		exec := s.Perform(act)
		if len(exec.Events) != 2 {
			t.Fatalf("exec events = %d", len(exec.Events))
		}
		// Serial dispatch: second event starts when the first ends.
		if exec.Events[1].Start != exec.Events[0].End {
			t.Fatalf("events not serial: %v vs %v", exec.Events[1].Start, exec.Events[0].End)
		}
		maxEv := exec.Events[0].ResponseTime()
		if rt := exec.Events[1].ResponseTime(); rt > maxEv {
			maxEv = rt
		}
		if exec.ResponseTime() != maxEv {
			t.Fatalf("action RT %v != max event RT %v", exec.ResponseTime(), maxEv)
		}
		if exec.BugCaused(100*simclock.Millisecond) != nil {
			sawHang = true
		}
		s.Idle(simclock.Second)
	}
	if !sawHang {
		t.Fatal("chapter bug never manifested")
	}
}

// TestSoakDeterminism runs a multi-day longitudinal deployment twice and
// requires identical detection fingerprints — the repository's core
// reproducibility guarantee under a long mixed workload.
func TestSoakDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	run := func() string {
		c := Build()
		a := c.MustApp("K9-Mail")
		s, err := app.NewSession(a, app.LGV10(), 77)
		if err != nil {
			t.Fatal(err)
		}
		trace := LongitudinalTrace(a, DefaultProfiles()[2], 77, 5)
		execs := RunLongitudinal(s, trace)
		fp := ""
		for _, e := range execs {
			fp += e.ResponseTime().String() + ";"
		}
		return fp
	}
	if run() != run() {
		t.Fatal("soak replay diverged")
	}
}
