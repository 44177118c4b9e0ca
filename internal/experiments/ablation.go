package experiments

import (
	"hangdoctor/internal/core"
	"hangdoctor/internal/experiments/pool"
	"hangdoctor/internal/perf"
	"hangdoctor/internal/simclock"
)

// AblationRow summarizes one Hang Doctor variant on the reference app.
type AblationRow struct {
	Variant  string
	TP, FP   int
	FN       int
	Overhead float64
}

// Ablation compares Hang Doctor design choices the paper argues for:
// two-phase vs single-phase, main-render difference vs main-only counters,
// three events vs one vs the full 46 (multiplexed), end-of-action counting
// vs an early read, and the periodic Normal reset.
type Ablation struct {
	Table TextTable
	Rows  map[string]AblationRow
}

// Name implements Result.
func (a *Ablation) Name() string { return "ablation" }

// Render implements Result.
func (a *Ablation) Render() string { return a.Table.Render() }

// ablationVariants enumerates the configurations under study.
func ablationVariants() []struct {
	Name string
	Cfg  core.Config
} {
	one := []core.Condition{core.DefaultConditions()[0]}
	all := func() []core.Condition {
		var out []core.Condition
		for _, c := range core.DefaultConditions() {
			out = append(out, c)
		}
		// Pad with every PMU event at an uninformative threshold: models a
		// kitchen-sink filter paying multiplexing inaccuracy.
		for _, e := range perfAllPMU() {
			out = append(out, core.Condition{Event: e, Threshold: 1 << 62})
		}
		return out
	}()
	return []struct {
		Name string
		Cfg  core.Config
	}{
		{"HD (full)", core.Config{}},
		{"phase1-only", core.Config{Phase1Only: true}},
		{"phase2-only", core.Config{Phase2Only: true}},
		{"main-only", core.Config{MainThreadOnly: true}},
		{"ctx-only", core.Config{Conditions: one}},
		{"all-46-events", core.Config{Conditions: all}},
		{"early-read-250ms", core.Config{EarlyRead: 250 * simclock.Millisecond}},
		{"no-reset", core.Config{ResetEvery: 1 << 30}},
		// Diagnoser sensitivity: the §3.4.1 occurrence threshold ("the exact
		// threshold can be adjusted") and the minimum trace population.
		{"occurrence-0.85", core.Config{OccurrenceHigh: 0.85}},
		{"min-traces-1", core.Config{MinTraces: 1}},
	}
}

// RunAblations evaluates each variant on K9-Mail plus Omni-Notes (the
// page-fault-signature app that a ctx-only filter must miss).
func RunAblations(ctx *Context) (*Ablation, error) {
	out := &Ablation{
		Rows: map[string]AblationRow{},
		Table: TextTable{
			Title:  "Ablations: Hang Doctor design choices (K9-Mail + Omni-Notes)",
			Header: []string{"Variant", "TP", "FP", "FN", "Overhead%"},
		},
	}
	apps := []string{"K9-Mail", "Omni-Notes"}
	// One unit per variant (each runs both apps on the same cached traces);
	// rows merge in variant order.
	variants := ablationVariants()
	rows, err := pool.Map(ctx.Workers(), len(variants), func(i int) (AblationRow, error) {
		v := variants[i]
		row := AblationRow{Variant: v.Name}
		var ovSum float64
		for _, appName := range apps {
			a := ctx.Corpus.MustApp(appName)
			d := core.New(v.Cfg)
			h, err := runOn(ctx, a, appDevice(), 0, d)
			if err != nil {
				return AblationRow{}, err
			}
			ev := h.Evaluate(d)
			row.TP += ev.TP
			row.FP += ev.FP
			row.FN += ev.FN
			ovSum += h.Overhead(d).Avg()
		}
		row.Overhead = ovSum / float64(len(apps))
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		out.Rows[row.Variant] = row
		out.Table.Add(row.Variant, itoa(row.TP), itoa(row.FP), itoa(row.FN), f2(row.Overhead))
	}
	out.Table.Notes = append(out.Table.Notes,
		"expected: phase2-only pays TI-like overhead; ctx-only misses the page-fault bugs; main-only and early-read lose filter quality",
	)
	return out, nil
}

// perfAllPMU returns every PMU event.
func perfAllPMU() []perf.Event {
	var out []perf.Event
	for _, e := range perf.AllEvents() {
		if !e.Kernel() {
			out = append(out, e)
		}
	}
	return out
}
