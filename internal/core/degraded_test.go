package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/detect"
	"hangdoctor/internal/fault"
	"hangdoctor/internal/simclock"
)

// runFaulted runs Hang Doctor over one app's trace with an injector
// installed on the session (nil for the perfect plane).
func runFaulted(t *testing.T, appName string, cfg Config, seed uint64, n int, inj *fault.Injector) (*Doctor, *detect.Harness) {
	t.Helper()
	a := corpus.Build().MustApp(appName)
	d := New(cfg)
	h, err := detect.NewHarness(a, app.LGV10(), seed, d)
	if err != nil {
		t.Fatal(err)
	}
	h.Session.SetFaults(inj)
	h.Run(corpus.Trace(a, seed, n), simclock.Second)
	return d, h
}

func doctorFingerprint(t *testing.T, d *Doctor) string {
	t.Helper()
	var b strings.Builder
	for _, tr := range d.Transitions() {
		fmt.Fprintf(&b, "%s %v->%v %s seq=%d lowconf=%v\n",
			tr.ActionUID, tr.From, tr.To, tr.Phase, tr.ExecSeq, tr.LowConfidence)
	}
	for _, det := range d.Detections() {
		fmt.Fprintf(&b, "det %s %s %s:%d occ=%.3f n=%d max=%d\n",
			det.ActionUID, det.RootCause, det.File, det.Line,
			det.Occurrence, det.Count, det.MaxResponse)
	}
	var exp bytes.Buffer
	if err := d.Report().Export(&exp); err != nil {
		t.Fatal(err)
	}
	b.WriteString(exp.String())
	b.WriteString(d.Telemetry().Render())
	return b.String()
}

// TestZeroRatesBitIdentical is the core invariant of the fault layer: an
// injector with every rate at zero must be indistinguishable — transition
// for transition, byte for byte — from no injector at all.
func TestZeroRatesBitIdentical(t *testing.T) {
	dNone, _ := runFaulted(t, "K9-Mail", Config{}, 11, 140, nil)
	dZero, _ := runFaulted(t, "K9-Mail", Config{}, 11, 140, fault.New(99, fault.Rates{}))

	if !dZero.Health().Zero() {
		t.Fatalf("zero-rate injector produced health counters: %s", dZero.Health())
	}
	a, b := doctorFingerprint(t, dNone), doctorFingerprint(t, dZero)
	if a != b {
		t.Fatalf("zero-rate run diverged from fault-free run:\n--- none ---\n%s\n--- zero ---\n%s", a, b)
	}
}

// TestDegradedModeNeverFabricates drives each fault kind at rate 1.0 over
// the K9-Mail trace and checks the graceful-degradation contract: the
// Doctor may defer or mark verdicts low-confidence, but it must never push
// a pure-UI action to HangBug or blame a UI API, and the matching health
// counter must record what happened.
func TestDegradedModeNeverFabricates(t *testing.T) {
	cases := []struct {
		name    string
		rates   fault.Rates
		counter func(Health) int
	}{
		{"perf-open-fail", fault.Rates{PerfOpenFail: 1}, func(h Health) int { return h.PerfOpenFailures }},
		{"counter-drop", fault.Rates{CounterDrop: 1}, func(h Health) int { return h.CountersLost }},
		{"render-loss", fault.Rates{RenderLoss: 1}, func(h Health) int { return h.RenderLost }},
		{"stack-miss", fault.Rates{StackMiss: 1}, func(h Health) int { return h.StacksDropped }},
		{"stack-truncate", fault.Rates{StackTruncate: 1}, func(h Health) int { return h.StacksTruncated }},
		{"sampler-overrun", fault.Rates{SamplerOverrun: 1}, func(h Health) int { return h.SamplerOverruns }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := runFaulted(t, "K9-Mail", Config{ResetEvery: 1 << 30}, 11, 140, fault.New(7, tc.rates))
			h := d.Health()
			if tc.counter(h) == 0 {
				t.Errorf("fault fired at rate 1.0 but its health counter is zero: %s", h)
			}
			// The engineered borderline UI actions must survive every fault.
			if got := d.State("K9-Mail/Inbox"); got == HangBug {
				t.Error("Inbox (UI) pushed to HangBug under faults")
			}
			if got := d.State("K9-Mail/Folders"); got == HangBug {
				t.Error("Folders (UI) pushed to HangBug under faults")
			}
			for _, det := range d.Detections() {
				if strings.HasPrefix(det.RootCause, "android.widget.") ||
					strings.HasPrefix(det.RootCause, "android.view.") {
					t.Errorf("UI API blamed under %s: %s", tc.name, det.RootCause)
				}
			}
		})
	}
}

// TestStackMissDefersDiagnosis: with every stack sample lost, the Diagnoser
// has no evidence and must defer every verdict rather than guess — zero
// detections, nonzero deferral and drop counters (the issue's acceptance
// scenario at the extreme end).
func TestStackMissDefersDiagnosis(t *testing.T) {
	d, _ := runFaulted(t, "K9-Mail", Config{}, 11, 140, fault.New(7, fault.Rates{StackMiss: 1}))
	if n := len(d.Detections()); n != 0 {
		t.Errorf("diagnosed %d bugs with zero stack evidence", n)
	}
	h := d.Health()
	if h.StacksDropped == 0 || h.VerdictsDeferred == 0 {
		t.Errorf("expected nonzero stacks-dropped and deferred, got %s", h)
	}
}

// TestStackMissHalfStillDetects: at 50% stack loss the occurrence factor
// scales to surviving samples, so the real bugs are still found — just
// marked low-confidence — and no new false positives appear.
func TestStackMissHalfStillDetects(t *testing.T) {
	base, hb := runFaulted(t, "K9-Mail", Config{}, 11, 140, nil)
	d, hf := runFaulted(t, "K9-Mail", Config{}, 11, 140, fault.New(7, fault.Rates{StackMiss: 0.5}))

	roots := map[string]bool{}
	for _, det := range d.Detections() {
		roots[det.RootCause] = true
	}
	if !roots["org.htmlcleaner.HtmlCleaner.clean"] {
		t.Errorf("clean not diagnosed at 50%% stack loss; got %v", roots)
	}
	evBase, evFault := hb.Evaluate(base), hf.Evaluate(d)
	if evFault.FP > evBase.FP {
		t.Errorf("stack loss created false positives: %d > %d", evFault.FP, evBase.FP)
	}
	lowConf := false
	for _, tr := range d.Transitions() {
		if tr.LowConfidence {
			lowConf = true
			break
		}
	}
	if !lowConf {
		t.Error("no transition marked low-confidence despite 50% stack loss")
	}
	if d.Health().StacksDropped == 0 {
		t.Error("stacks-dropped counter is zero at 50% stack loss")
	}
}

// TestOpenFailQuarantine: when every perf open fails, repeat offenders are
// quarantined after quarantineAfter consecutive failures and the Doctor
// stops burning retries on them.
func TestOpenFailQuarantine(t *testing.T) {
	d, _ := runFaulted(t, "K9-Mail", Config{}, 11, 140, fault.New(7, fault.Rates{PerfOpenFail: 1}))
	h := d.Health()
	if h.PerfOpenFailures == 0 || h.PerfOpenRetries == 0 {
		t.Fatalf("expected open failures and retries, got %s", h)
	}
	if h.Quarantines == 0 {
		t.Errorf("no quarantine despite permanent open failure: %s", h)
	}
	if n := len(d.Detections()); n != 0 {
		t.Errorf("diagnosed %d bugs with no counter evidence", n)
	}
	// Health must surface through every reporting channel.
	if !strings.Contains(d.Report().Render(), "Degraded-mode health:") {
		t.Error("report render missing health footer")
	}
	if !strings.Contains(d.Telemetry().Render(), "Degraded-mode health:") {
		t.Error("telemetry render missing health footer")
	}
}
