package experiments

import (
	"fmt"
	"strings"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/cpu"
	"hangdoctor/internal/detect"
	"hangdoctor/internal/perf"
	"hangdoctor/internal/simclock"
)

// Fig5 reproduces the paper's Figure 5: 100 ms-windowed context-switch time
// series of the main and render threads during (a) a soft-hang-bug action
// and (b) a UI action. The point of the figure: the UI action shows
// bug-like symptoms in its first windows (main busy, render not yet fed),
// so S-Checker must accumulate to the end of the action before judging.
type Fig5 struct {
	Text string
	// Bug and UI are the per-window (main, render) context-switch counts.
	Bug, UI []windowSample
	// UIEarlyPositive reports whether the UI action's first window had a
	// positive main-minus-render difference (the early-read trap).
	UIEarlyPositive bool
	// UITotalPositive reports whether the UI action's full-window
	// difference stayed positive (it should not).
	UITotalPositive bool
}

type windowSample struct {
	At           simclock.Time
	Main, Render int64
}

// Render implements Result.
func (f *Fig5) Render() string { return f.Text }

// seriesFor runs one action until cause selects an execution, sampling
// context switches every 100 ms.
func seriesFor(ctx *Context, a *app.App, actName string, wantBug bool, seed uint64) ([]windowSample, error) {
	s, err := app.NewSession(a, appDevice(), seed)
	if err != nil {
		return nil, err
	}
	act := a.MustAction(actName)
	for try := 0; try < 40; try++ {
		ps := perf.Open(s.Clk, []*cpu.Thread{s.MainThread(), s.RenderThread()},
			[]perf.Event{perf.ContextSwitches}, perf.Config{})
		ps.SampleEvery(100 * simclock.Millisecond)
		exec := s.Perform(act)
		// Flush the final partial window before stopping.
		s.Idle(100 * simclock.Millisecond)
		ps.Stop()
		samples := ps.Samples()
		s.Idle(simclock.Second)
		isBug := exec.BugCaused(detect.PerceivableDelay) != nil
		if exec.ResponseTime() > detect.PerceivableDelay && isBug == wantBug {
			var out []windowSample
			for _, smp := range samples {
				out = append(out, windowSample{
					At: smp.At, Main: smp.PerThread[0][0], Render: smp.PerThread[1][0],
				})
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("experiments: no qualifying execution of %s/%s", a.Name, actName)
}

// RunFig5 produces both series from K9-Mail.
func RunFig5(ctx *Context) (*Fig5, error) {
	a := ctx.Corpus.MustApp("K9-Mail")
	bug, err := seriesFor(ctx, a, "Open Email", true, ctx.Seed+5)
	if err != nil {
		return nil, err
	}
	ui, err := seriesFor(ctx, a, "Folders", false, ctx.Seed+6)
	if err != nil {
		return nil, err
	}
	out := &Fig5{Bug: bug, UI: ui}
	if len(ui) > 0 {
		out.UIEarlyPositive = ui[0].Main > ui[0].Render
	}
	var uiMain, uiRender int64
	for _, w := range ui {
		uiMain += w.Main
		uiRender += w.Render
	}
	out.UITotalPositive = uiMain > uiRender

	var b strings.Builder
	b.WriteString("== Figure 5: context-switch traces, main vs render thread (100ms windows) ==\n")
	render := func(label string, series []windowSample) {
		fmt.Fprintf(&b, "(%s)\n%10s %8s %8s %8s\n", label, "t", "main", "render", "diff")
		for _, w := range series {
			fmt.Fprintf(&b, "%10s %8d %8d %+8d\n",
				simclock.Duration(w.At).String(), w.Main, w.Render, w.Main-w.Render)
		}
	}
	render("a: soft hang bug (Open Email)", bug)
	render("b: UI-API (Folders)", ui)
	fmt.Fprintf(&b, "UI action first window main>render: %v; UI full-action main>render: %v\n",
		out.UIEarlyPositive, out.UITotalPositive)
	b.WriteString("paper: the UI action looks bug-like early (0-0.6s) but not over the full window — S-Checker must count to action end\n")
	out.Text = b.String()
	return out, nil
}
