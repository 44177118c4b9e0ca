package experiments

import (
	"fmt"
	"strings"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/core"
	"hangdoctor/internal/detect"
	"hangdoctor/internal/simclock"
)

// Fig6 reproduces the paper's Figure 6 walk-through (§4.3): Hang Doctor
// detecting the K9-Mail HtmlCleaner.clean bug — the S-Checker flag on the
// first hang, then the Diagnoser's stack-trace collection and
// occurrence-factor analysis on the next one.
type Fig6 struct {
	Text string
	// Detection is the confirmed clean diagnosis.
	Detection *core.Detection
	// SCheckExec and DiagnoseExec are the execution indexes (within the
	// Open Email action) where each phase acted.
	SCheckExec, DiagnoseExec int
	// HangResponse is the diagnosed hang's response time.
	HangResponse simclock.Duration
}

// Name implements Result.
func (f *Fig6) Name() string { return "fig6" }

// Render implements Result.
func (f *Fig6) Render() string { return f.Text }

// RunFig6 drives Open Email executions until the bug is diagnosed.
func RunFig6(ctx *Context) (*Fig6, error) {
	a := ctx.Corpus.MustApp("K9-Mail")
	d := core.New(core.Config{})
	s, err := app.NewSession(a, appDevice(), ctx.Seed+9)
	if err != nil {
		return nil, err
	}
	d.Attach(s)
	s.AddListener(d)
	act := a.MustAction("Open Email")
	out := &Fig6{SCheckExec: -1, DiagnoseExec: -1}
	var diagnosed *core.Detection
	for i := 0; i < 60 && diagnosed == nil; i++ {
		exec := s.Perform(act)
		s.Idle(simclock.Second)
		for _, det := range d.Detections() {
			if det.RootCause == "org.htmlcleaner.HtmlCleaner.clean" {
				diagnosed = det
				out.DiagnoseExec = i
				out.HangResponse = exec.ResponseTime()
			}
		}
	}
	d.Detach()
	if diagnosed == nil {
		return nil, fmt.Errorf("experiments: clean bug never diagnosed")
	}
	out.Detection = diagnosed
	for _, tr := range d.Transitions() {
		if tr.ActionUID == act.UID && tr.To == core.Suspicious {
			out.SCheckExec = tr.ExecSeq
			break
		}
	}

	var b strings.Builder
	b.WriteString("== Figure 6: K9-Mail 'Open Email' walk-through ==\n")
	fmt.Fprintf(&b, "(a) execution %d: soft hang observed; S-Checker reads positive counter differences\n", out.SCheckExec)
	fmt.Fprintf(&b, "    -> action transitions Uncategorized -> Suspicious\n")
	fmt.Fprintf(&b, "(b) execution %d: soft hang of %v; Diagnoser collects stack traces:\n", out.DiagnoseExec, out.HangResponse)
	nSamples := int(out.HangResponse / (20 * simclock.Millisecond))
	for _, k := range []int{1, 2, 3} {
		fmt.Fprintf(&b, "    [ST %2d] clean(HtmlCleaner.java:25) <- sanitize(HtmlSanitizer.java:25) <- onClick_OpenEmail\n", k)
	}
	fmt.Fprintf(&b, "    ... (%d samples over the hang)\n", nSamples)
	fmt.Fprintf(&b, "    root cause: %s (%s:%d), occurrence factor %.0f%% (paper: clean, 96%%)\n",
		out.Detection.RootCause, out.Detection.File, out.Detection.Line, 100*out.Detection.Occurrence)
	fmt.Fprintf(&b, "    not a UI class -> soft hang bug; action -> HangBug; API added to known-blocking DB\n")
	fmt.Fprintf(&b, "paper: response 1.3s, ~62 stack traces, clean at HtmlSanitizer.java:25\n")
	out.Text = b.String()
	return out, nil
}

// Fig7 reproduces the paper's Figure 7: the state transitions that prune
// UI-caused false positives for K9-Mail's Folders and Inbox actions.
type Fig7 struct {
	Text string
	// Transitions per action UID, in order.
	Paths map[string][]string
	// TracedUIActions counts Diagnoser trace collections spent on UI
	// actions before they settled Normal (should be small).
	TracedUIActions int
	// FinalStates per action.
	FinalStates map[string]core.ActionState
}

// Name implements Result.
func (f *Fig7) Name() string { return "fig7" }

// Render implements Result.
func (f *Fig7) Render() string { return f.Text }

// RunFig7 runs a K9 trace and renders the per-action state paths.
func RunFig7(ctx *Context) (*Fig7, error) {
	a := ctx.Corpus.MustApp("K9-Mail")
	d := core.New(core.Config{ResetEvery: 1 << 30})
	if _, err := runOn(ctx, a, appDevice(), 3, d); err != nil {
		return nil, err
	}

	out := &Fig7{Paths: map[string][]string{}, FinalStates: map[string]core.ActionState{}}
	for _, tr := range d.Transitions() {
		out.Paths[tr.ActionUID] = append(out.Paths[tr.ActionUID],
			fmt.Sprintf("%s: %v->%v (exec %d)", tr.Phase, tr.From, tr.To, tr.ExecSeq))
	}
	for _, act := range a.Actions {
		out.FinalStates[act.UID] = d.State(act.UID)
	}
	for _, hng := range d.Log().Traced {
		if hng.Exec.BugCaused(detect.PerceivableDelay) == nil {
			out.TracedUIActions++
		}
	}

	var b strings.Builder
	b.WriteString("== Figure 7: action state transitioning (K9-Mail) ==\n")
	for _, act := range a.Actions {
		fmt.Fprintf(&b, "%-28s final=%v\n", act.Name, out.FinalStates[act.UID])
		for _, p := range out.Paths[act.UID] {
			fmt.Fprintf(&b, "    %s\n", p)
		}
	}
	fmt.Fprintf(&b, "Diagnoser trace collections spent on UI actions: %d (pruned to Normal afterwards)\n", out.TracedUIActions)
	b.WriteString("paper: Folders goes Uncategorized->Normal at first hang; Inbox is a one-time S-Checker false positive pruned by the Diagnoser\n")
	out.Text = b.String()
	return out, nil
}
