package experiments

import (
	"fmt"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/simrand"
	"hangdoctor/internal/stats"
)

// appDevice is the evaluation device (the paper's LG V10).
func appDevice() app.Device { return app.LGV10() }

// Table3 reproduces the paper's Table 3: the top-10 Pearson-correlated
// performance events for soft-hang-bug diagnosis, (a) on main-minus-render
// differences and (b) on main-thread-only counters.
type Table3 struct {
	Table    TextTable
	DiffRank []stats.Ranked
	MainRank []stats.Ranked
	// SpearmanRank is the §3.3.1 future-work check: rank (monotone,
	// non-linear) correlation on the same difference samples.
	SpearmanRank []stats.Ranked
	DiffTop10    float64 // average coefficient of the diff top-10
	MainTop10    float64
	Samples      *SampleSet
	SampleCount  int
}

// Render implements Result.
func (t *Table3) Render() string { return t.Table.Render() }

// RunTable3 collects training samples and ranks all 46 events both ways.
func RunTable3(ctx *Context) (*Table3, error) {
	set, err := CollectSamples(ctx.Corpus, ctx.Training, ctx.Scale.SamplesPerItem, ctx.Seed, ctx.Workers())
	if err != nil {
		return nil, err
	}
	out := &Table3{
		Samples:      set,
		SampleCount:  set.Len(),
		DiffRank:     stats.RankByCorrelation(set.Diff, set.Labels),
		MainRank:     stats.RankByCorrelation(set.MainOnly, set.Labels),
		SpearmanRank: stats.RankBySpearman(set.Diff, set.Labels),
		Table: TextTable{
			Title:  "Table 3: top-10 correlated events (a) main-render diff vs (b) main only",
			Header: []string{"#", "(a) event", "(a) corr", "(b) event", "(b) corr"},
		},
	}
	for i := 0; i < 10; i++ {
		out.DiffTop10 += out.DiffRank[i].Coeff / 10
		out.MainTop10 += out.MainRank[i].Coeff / 10
		out.Table.Add(itoa(i+1),
			out.DiffRank[i].Name, f3(out.DiffRank[i].Coeff),
			out.MainRank[i].Name, f3(out.MainRank[i].Coeff))
	}
	out.Table.Add("avg", "", f3(out.DiffTop10), "", f3(out.MainTop10))
	out.Table.Notes = append(out.Table.Notes,
		fmt.Sprintf("%d samples; paper: diff avg 0.545 vs main-only 0.472, context-switches ranked first in diff mode", set.Len()),
		fmt.Sprintf("future-work check (§3.3.1, non-linear correlation): Spearman diff top-3 = %s (%.3f), %s (%.3f), %s (%.3f) — same family as Pearson's",
			out.SpearmanRank[0].Name, out.SpearmanRank[0].Coeff,
			out.SpearmanRank[1].Name, out.SpearmanRank[1].Coeff,
			out.SpearmanRank[2].Name, out.SpearmanRank[2].Coeff))
	return out, nil
}

// Table4 reproduces the paper's Table 4: the sensitivity of the correlation
// ranking to the training set (75% and 50% subsamples keep the same
// top-correlated events).
type Table4 struct {
	Table    TextTable
	Full     []stats.Ranked
	Sub75    []stats.Ranked
	Sub50    []stats.Ranked
	Overlap5 [2]int // top-5 overlap of 75% and 50% vs full
}

// Render implements Result.
func (t *Table4) Render() string { return t.Table.Render() }

// RunTable4 reruns the Table-3 diff-mode analysis on subsampled training
// sets.
func RunTable4(ctx *Context) (*Table4, error) {
	t3, err := RunTable3(ctx)
	if err != nil {
		return nil, err
	}
	rng := simrand.New(ctx.Seed).Derive("table4")
	out := &Table4{
		Full:  t3.DiffRank,
		Sub75: stats.Subsample(t3.Samples.Diff, t3.Samples.Labels, 0.75, rng),
		Sub50: stats.Subsample(t3.Samples.Diff, t3.Samples.Labels, 0.50, rng),
		Table: TextTable{
			Title:  "Table 4: sensitivity of the correlation analysis to the training set",
			Header: []string{"#", "full", "75% set", "50% set"},
		},
	}
	out.Overlap5[0] = stats.OverlapCount(out.Full, out.Sub75, 5)
	out.Overlap5[1] = stats.OverlapCount(out.Full, out.Sub50, 5)
	for i := 0; i < 10; i++ {
		out.Table.Add(itoa(i+1),
			fmt.Sprintf("%s (%.3f)", out.Full[i].Name, out.Full[i].Coeff),
			fmt.Sprintf("%s (%.3f)", out.Sub75[i].Name, out.Sub75[i].Coeff),
			fmt.Sprintf("%s (%.3f)", out.Sub50[i].Name, out.Sub50[i].Coeff))
	}
	out.Table.Notes = append(out.Table.Notes,
		fmt.Sprintf("top-5 overlap with full set: 75%%=%d/5, 50%%=%d/5 (paper: top-5 identical across sets)",
			out.Overlap5[0], out.Overlap5[1]))
	return out, nil
}

// Fig4 reproduces the paper's Figure 4: the sorted per-sample differences
// of the three chosen events with the thresholds the design procedure
// derives, showing how they split soft hang bugs (HB) from UI operations.
type Fig4 struct {
	Text      string
	Selection stats.Selection
	// ShareHBAbove / ShareUIBelow per condition: the "90% of bugs above,
	// 90% of UI below" split the paper quotes.
	Split map[string][2]float64
}

// Render implements Result.
func (f *Fig4) Render() string { return f.Text }

// RunFig4 renders the class separation of the paper's three filter events
// on the training samples (the three panels of Figure 4) and re-derives a
// filter with the §3.3.1 greedy procedure on the same data.
func RunFig4(ctx *Context) (*Fig4, error) {
	t3, err := RunTable3(ctx)
	if err != nil {
		return nil, err
	}
	set := t3.Samples
	sel := stats.GreedySelect(t3.DiffRank, set.Diff, set.Labels, 3)
	out := &Fig4{Selection: sel, Split: map[string][2]float64{}}

	split := func(name string, thr float64) (shareHB, shareUI float64) {
		vec := set.Diff[name]
		var hbAbove, hbTotal, uiBelow, uiTotal int
		for i, v := range vec {
			if set.Labels[i] == 1 {
				hbTotal++
				if v > thr {
					hbAbove++
				}
			} else {
				uiTotal++
				if v <= thr {
					uiBelow++
				}
			}
		}
		return float64(hbAbove) / float64(hbTotal), float64(uiBelow) / float64(uiTotal)
	}

	text := "== Figure 4: soft hang filter design (sorted HB vs UI-API differences) ==\n"
	text += "paper's three filter conditions on our training samples:\n"
	paperConds := []struct {
		name string
		thr  float64
	}{
		{"context-switches", 0},
		{"task-clock", 1.7e8},
		{"page-faults", 500},
	}
	for _, pc := range paperConds {
		hb, ui := split(pc.name, pc.thr)
		out.Split[pc.name] = [2]float64{hb, ui}
		text += fmt.Sprintf("  %-20s > %-8.3g: %.0f%% of HB samples above, %.0f%% of UI samples below\n",
			pc.name, pc.thr, 100*hb, 100*ui)
	}
	text += "filter re-derived by the greedy design procedure on this training set:\n"
	for _, cond := range sel.Conditions {
		hb, ui := split(cond.Name, cond.Threshold)
		text += fmt.Sprintf("  %-20s > %-8.3g: %.0f%% of HB above, %.0f%% of UI below\n",
			cond.Name, cond.Threshold, 100*hb, 100*ui)
	}
	text += fmt.Sprintf("filter on training set: TP=%d FN=%d FP=%d TN=%d (FP pruned %.0f%%, accuracy %.0f%%)\n",
		sel.TruePositives, sel.FalseNegatives, sel.FalsePositives, sel.TrueNegatives,
		100*float64(sel.TrueNegatives)/float64(sel.TrueNegatives+sel.FalsePositives),
		100*float64(sel.TruePositives+sel.TrueNegatives)/float64(len(set.Labels)))
	text += "paper: ctx-switch>0, task-clock>1.7e8, page-faults>500; 100% of bugs kept, 64% of FPs pruned (81% accuracy)\n"
	out.Text = text
	return out, nil
}
