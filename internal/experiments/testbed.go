package experiments

import (
	"fmt"
	"sort"

	"hangdoctor/internal/core"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/detect"
	"hangdoctor/internal/simclock"
)

// Testbed reproduces the paper's §4.6 discussion of the alternative
// deployment: running Hang Doctor on an in-lab test bed with automated
// (Monkey-style) inputs instead of in the wild. The test bed removes the
// overhead concern — it can even run the Diagnoser on every hang — but it
// cannot recreate the environment that makes many bugs manifest (large
// mailboxes, cold caches, heavy content), so bugs are missed that the
// in-the-wild deployment catches.
type Testbed struct {
	Table TextTable
	// WildFound / LabFound are distinct-bug counts per app.
	WildFound, LabFound map[string]int
	// TotalWild / TotalLab are the bottom lines.
	TotalWild, TotalLab int
	// LabOnlyOverheadPct is the phase-2-only overhead the test bed can
	// afford (externally powered; §4.6).
	LabOverheadPct, WildOverheadPct float64
}

// Render implements Result.
func (t *Testbed) Render() string { return t.Table.Render() }

// labRichness is how much of the real-world bug-triggering state an
// automated test bed reproduces.
const labRichness = 0.15

// RunTestbed compares in-the-wild and test-bed deployments over the
// Table-5 apps.
func RunTestbed(ctx *Context) (*Testbed, error) {
	out := &Testbed{
		WildFound: map[string]int{},
		LabFound:  map[string]int{},
		Table: TextTable{
			Title:  "Test bed vs in-the-wild deployment (distinct bugs found per app)",
			Header: []string{"App", "Seeded", "Wild (HD)", "Test bed (Monkey)"},
		},
	}
	var names []string
	for _, a := range ctx.Corpus.Table5 {
		names = append(names, a.Name)
	}
	sort.Strings(names)

	var wildCost, labCost float64
	for i, name := range names {
		a := ctx.Corpus.MustApp(name)

		// In the wild: weighted user trace, full environment, two-phase HD.
		dWild := core.New(core.Config{})
		hWild, err := runOn(ctx, a, appDevice(), uint64(2000+i), dWild)
		if err != nil {
			return nil, err
		}
		wild := len(matchDetections(a, dWild.Detections()))
		wildCost += hWild.Overhead(dWild).Avg()

		// Test bed: Monkey inputs, impoverished environment, phase-2-only
		// (overhead is no concern on external power, §4.6).
		labDev := appDevice()
		labDev.EnvRichness = labRichness
		dLab := core.New(core.Config{Phase2Only: true})
		hLab, err := detect.NewHarness(a, labDev, ctx.Seed+uint64(3000+i), dLab)
		if err != nil {
			return nil, err
		}
		// An in-lab campaign is hours, not a 60-day deployment: a third of
		// the wild trace length.
		hLab.Run(corpus.MonkeyTrace(a, ctx.Seed+uint64(3000+i), ctx.Scale.TracePerApp/3),
			200*simclock.Millisecond) // monkeys don't think
		lab := len(matchDetections(a, dLab.Detections()))
		labCost += hLab.Overhead(dLab).Avg()

		out.WildFound[name] = wild
		out.LabFound[name] = lab
		out.TotalWild += wild
		out.TotalLab += lab
		out.Table.Add(name, itoa(len(a.Bugs)), itoa(wild), itoa(lab))
	}
	out.WildOverheadPct = wildCost / float64(len(names))
	out.LabOverheadPct = labCost / float64(len(names))
	out.Table.Add("TOTAL", itoa(len(ctx.Corpus.Table5Bugs())), itoa(out.TotalWild), itoa(out.TotalLab))
	out.Table.Notes = append(out.Table.Notes,
		fmt.Sprintf("test bed runs Monkey inputs on a %.0f%%-richness environment with phase-2-only HD (overhead %.2f%% vs %.2f%% in the wild)",
			100*labRichness, out.LabOverheadPct, out.WildOverheadPct),
		"paper §4.6: test beds cannot completely recreate the real environment, so soft hang bugs are still missed and Hang Doctor must run in the wild")
	return out, nil
}
