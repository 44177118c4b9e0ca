package experiments

import (
	"fmt"
	"sort"
	"strings"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/simclock"
)

// Fig1 reproduces the paper's Figure 1: the main-thread timeline of A
// Better Camera's Resume action with the camera-open soft hang bug, versus
// the fixed version that moves the API to a worker thread (423 ms → 160 ms
// in the paper).
type Fig1 struct {
	Text         string
	BuggyMean    simclock.Duration
	FixedMean    simclock.Duration
	BuggyOps     []opSpan
	OpenShareBug float64 // camera.open share of the buggy response time
}

type opSpan struct {
	Name string
	Dur  simclock.Duration
}

// Render implements Result.
func (f *Fig1) Render() string { return f.Text }

// RunFig1 measures both variants.
func RunFig1(ctx *Context) (*Fig1, error) {
	buggy, fixed := ctx.Corpus.ABetterCameraPair()
	out := &Fig1{}

	measure := func(a *app.App, keepOps bool) (simclock.Duration, error) {
		s, err := app.NewSession(a, appDevice(), ctx.Seed)
		if err != nil {
			return 0, err
		}
		act := a.MustAction("Resume")
		const n = 12
		var total simclock.Duration
		for i := 0; i < n; i++ {
			exec := s.Perform(act)
			total += exec.ResponseTime()
			if keepOps && i == 0 {
				spans := map[string]simclock.Duration{}
				for _, h := range exec.Heavy {
					spans[h.Op.Name] += h.Dur
				}
				for name, dur := range spans {
					out.BuggyOps = append(out.BuggyOps, opSpan{Name: name, Dur: dur})
				}
				sort.Slice(out.BuggyOps, func(i, j int) bool { return out.BuggyOps[i].Dur > out.BuggyOps[j].Dur })
			}
			s.Idle(simclock.Second)
		}
		return total / n, nil
	}
	var err error
	if out.BuggyMean, err = measure(buggy, true); err != nil {
		return nil, err
	}
	if out.FixedMean, err = measure(fixed, false); err != nil {
		return nil, err
	}
	for _, sp := range out.BuggyOps {
		if sp.Name == "open" {
			out.OpenShareBug = float64(sp.Dur) / float64(out.BuggyMean)
		}
	}

	var b strings.Builder
	b.WriteString("== Figure 1: A Better Camera 'Resume' main-thread timeline ==\n")
	fmt.Fprintf(&b, "buggy main thread response: %v (paper: 423ms)\n", out.BuggyMean)
	fmt.Fprintf(&b, "fixed main thread response: %v (paper: 160ms, camera.open on worker thread)\n", out.FixedMean)
	b.WriteString("buggy-run operation spans (main thread):\n")
	var cum simclock.Duration
	for _, sp := range out.BuggyOps {
		bar := strings.Repeat("#", int(sp.Dur/(10*simclock.Millisecond))+1)
		fmt.Fprintf(&b, "  %-16s %9s %s\n", sp.Name, sp.Dur, bar)
		cum += sp.Dur
	}
	fmt.Fprintf(&b, "speedup from moving one blocking API off the main thread: %.1fx\n",
		float64(out.BuggyMean)/float64(out.FixedMean))
	out.Text = b.String()
	return out, nil
}
