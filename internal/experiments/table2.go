package experiments

import (
	"fmt"

	"hangdoctor/internal/detect"
	"hangdoctor/internal/experiments/pool"
	"hangdoctor/internal/simclock"
)

// Table1 reproduces the paper's Table 1: the motivation apps and their
// commits.
type Table1 struct{ Table TextTable }

// Render implements Result.
func (t *Table1) Render() string { return t.Table.Render() }

// RunTable1 lists the motivation-study apps.
func RunTable1(ctx *Context) *Table1 {
	out := &Table1{Table: TextTable{
		Title:  "Table 1: apps with well-known soft hang bugs (motivation study)",
		Header: []string{"App", "Commit", "Category", "Bugs"},
	}}
	for _, a := range ctx.Corpus.Motivation {
		out.Table.Add(a.Name, a.Commit, a.Category, itoa(len(a.Bugs)))
	}
	return out
}

// Table2 reproduces the paper's Table 2: per-app true/false positives of
// the Timeout-based detector at 5 s, 1 s, 500 ms, and 100 ms.
type Table2 struct {
	Table TextTable
	// TP[timeout][app], FP[timeout][app] keyed by timeout string then app.
	TP, FP map[string]map[string]int
	// Timeouts in display order.
	Timeouts []simclock.Duration
	// Hangs is the ground-truth number of bug hangs across all traces.
	Hangs int
}

// Render implements Result.
func (t *Table2) Render() string { return t.Table.Render() }

// TotalTP sums true positives across apps for a timeout.
func (t *Table2) TotalTP(d simclock.Duration) int {
	n := 0
	for _, v := range t.TP[d.String()] {
		n += v
	}
	return n
}

// TotalFP sums false positives across apps for a timeout.
func (t *Table2) TotalFP(d simclock.Duration) int {
	n := 0
	for _, v := range t.FP[d.String()] {
		n += v
	}
	return n
}

// RunTable2 runs the timeout sweep over the motivation apps.
func RunTable2(ctx *Context) (*Table2, error) {
	timeouts := []simclock.Duration{
		5 * simclock.Second, simclock.Second, 500 * simclock.Millisecond, 100 * simclock.Millisecond,
	}
	out := &Table2{
		Timeouts: timeouts,
		TP:       map[string]map[string]int{},
		FP:       map[string]map[string]int{},
		Table: TextTable{
			Title: "Table 2: Timeout-based detection vs timeout value (TP | FP)",
			Header: []string{"App", "TP 5s", "TP 1s", "TP 500ms", "TP 100ms",
				"FP 5s", "FP 1s", "FP 500ms", "FP 100ms"},
		},
	}
	for _, d := range timeouts {
		out.TP[d.String()] = map[string]int{}
		out.FP[d.String()] = map[string]int{}
	}
	// One work unit per motivation app: each unit's harnesses are seeded by
	// (ctx.Seed, app) alone, so units are order-independent and merge back
	// in corpus order below.
	type t2unit struct {
		tp, fp []int
		hangs  int
	}
	apps := ctx.Corpus.Motivation
	units, err := pool.Map(ctx.Workers(), len(apps), func(i int) (t2unit, error) {
		a := apps[i]
		u := t2unit{tp: make([]int, len(timeouts)), fp: make([]int, len(timeouts))}
		for k, d := range timeouts {
			ti := detect.NewTimeout(d)
			h, err := runOn(ctx, a, appDevice(), 0, ti)
			if err != nil {
				return t2unit{}, err
			}
			ev := h.Evaluate(ti)
			u.tp[k], u.fp[k] = ev.TP, ev.FP
			if d == 100*simclock.Millisecond {
				u.hangs = ev.GroundTruthHangs
			}
		}
		return u, nil
	})
	if err != nil {
		return nil, err
	}
	for i, a := range apps {
		u := units[i]
		row := []string{a.Name}
		var fpCells []string
		for k, d := range timeouts {
			out.TP[d.String()][a.Name] = u.tp[k]
			out.FP[d.String()][a.Name] = u.fp[k]
			row = append(row, itoa(u.tp[k]))
			fpCells = append(fpCells, itoa(u.fp[k]))
		}
		out.Hangs += u.hangs
		out.Table.Add(append(row, fpCells...)...)
	}
	total := []string{"TOTAL"}
	var fpTot []string
	for _, d := range timeouts {
		total = append(total, fmt.Sprintf("%d/%d", out.TotalTP(d), out.Hangs))
		fpTot = append(fpTot, itoa(out.TotalFP(d)))
	}
	out.Table.Add(append(total, fpTot...)...)
	out.Table.Notes = append(out.Table.Notes,
		"paper: 5s finds 0/19 TP, 100ms finds 19/19 TP with 33 FP; shape = TP and FP both grow as the timeout shrinks")
	return out, nil
}
