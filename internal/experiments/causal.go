package experiments

import (
	"fmt"
	"sort"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/core"
	"hangdoctor/internal/experiments/pool"
)

// Causal is the head-to-head evaluation of causal-chain attribution against
// main-thread-only analysis over the async corpus slice: the same traces,
// the same sampler, one doctor with NoCausal set and one without.
type Causal struct {
	Table TextTable
	// Seeded is the number of async bugs in the ground truth.
	Seeded int
	// CausalFound / MainFound count seeded bugs each mode diagnosed.
	CausalFound, MainFound int
	// CausalFalse / MainFalse count detections not matching any seeded bug
	// (on bug apps: misattributions; on controls: outright false positives).
	CausalFalse, MainFalse int
}

// Render implements Result.
func (c *Causal) Render() string { return c.Table.Render() }

// RunCausal runs every async-slice app twice — once with causal attribution
// and once restricted to the paper's main-thread-only analysis — and scores
// both against the seeded ground truth.
func RunCausal(ctx *Context) (*Causal, error) {
	out := &Causal{
		Table: TextTable{
			Title:  "Causal attribution vs main-thread-only analysis (async corpus slice)",
			Header: []string{"App", "Bugs", "Causal hit", "Main hit", "Causal FP", "Main FP"},
		},
	}
	apps := ctx.Corpus.Async
	type appResult struct {
		causalHit, mainHit, causalFP, mainFP int
	}
	results, err := pool.Map(ctx.Workers(), len(apps), func(i int) (appResult, error) {
		a := apps[i]
		// The same seed offset for both modes: identical trace, identical
		// manifest draws, so the only variable is the analyzer.
		dc := core.New(core.Config{})
		if _, err := runOn(ctx, a, appDevice(), 5000+uint64(i), dc); err != nil {
			return appResult{}, err
		}
		dm := core.New(core.Config{NoCausal: true})
		if _, err := runOn(ctx, a, appDevice(), 5000+uint64(i), dm); err != nil {
			return appResult{}, err
		}
		var res appResult
		res.causalHit = len(matchDetections(a, dc.Detections()))
		res.mainHit = len(matchDetections(a, dm.Detections()))
		res.causalFP = falseDetections(a, dc.Detections())
		res.mainFP = falseDetections(a, dm.Detections())
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	names := make([]int, len(apps))
	for i := range apps {
		names[i] = i
	}
	sort.Slice(names, func(i, j int) bool { return apps[names[i]].Name < apps[names[j]].Name })
	for _, i := range names {
		a, res := apps[i], results[i]
		out.Seeded += len(a.Bugs)
		out.CausalFound += res.causalHit
		out.MainFound += res.mainHit
		out.CausalFalse += res.causalFP
		out.MainFalse += res.mainFP
		out.Table.Add(a.Name, itoa(len(a.Bugs)),
			itoa(res.causalHit), itoa(res.mainHit), itoa(res.causalFP), itoa(res.mainFP))
	}
	out.Table.Add("TOTAL", itoa(out.Seeded),
		itoa(out.CausalFound), itoa(out.MainFound), itoa(out.CausalFalse), itoa(out.MainFalse))
	out.Table.Notes = append(out.Table.Notes,
		fmt.Sprintf("causal recall %d/%d vs main-thread-only %d/%d; false attributions %d vs %d; main-only analysis stalls at the await frame (FutureTask.get) or never sees the origin action",
			out.CausalFound, out.Seeded, out.MainFound, out.Seeded, out.CausalFalse, out.MainFalse))
	return out, nil
}

// falseDetections counts detections that match no seeded bug of the app.
func falseDetections(a *app.App, dets []*core.Detection) int {
	n := 0
	for _, det := range dets {
		matched := false
		for _, b := range a.Bugs {
			if det.ActionUID == b.Action.UID && det.RootCause == b.RootCauseKey() {
				matched = true
				break
			}
		}
		if !matched {
			n++
		}
	}
	return n
}
