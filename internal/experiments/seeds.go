package experiments

import (
	"fmt"

	"hangdoctor/internal/core"
	"hangdoctor/internal/experiments/pool"
)

// SeedStat aggregates one metric across seeds.
type SeedStat struct {
	Mean, Min, Max float64
}

func newSeedStat(vals []float64) SeedStat {
	s := SeedStat{Min: vals[0], Max: vals[0]}
	for _, v := range vals {
		s.Mean += v / float64(len(vals))
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	return s
}

// SeedRobustness re-runs the core detection metrics across independent
// seeds: every randomized ingredient (jitter, manifestation, interference,
// measurement noise) is redrawn, so the spread bounds how much of the
// headline results is luck. The paper's equivalent is 20 users with 20
// different usage histories all confirming the same bugs.
type SeedRobustness struct {
	Table TextTable
	// Recall/FPShare stats for Hang Doctor across seeds (aggregated over
	// the probe apps).
	Recall  SeedStat
	FPShare SeedStat
	// BugsFound per seed (distinct across the probe apps).
	BugsFound SeedStat
	Seeds     int
}

// Render implements Result.
func (s *SeedRobustness) Render() string { return s.Table.Render() }

// seedProbeApps cover the three hardest signature families.
var seedProbeApps = []string{"K9-Mail", "Omni-Notes", "CycleStreets"}

// RunSeedRobustness runs Hang Doctor under six distinct seeds.
func RunSeedRobustness(ctx *Context) (*SeedRobustness, error) {
	const nSeeds = 6
	out := &SeedRobustness{
		Seeds: nSeeds,
		Table: TextTable{
			Title:  "Seed robustness: Hang Doctor across independent random worlds",
			Header: []string{"Seed", "recall", "FP/UI-hangs", "distinct bugs"},
		},
	}
	// Flatten the sweep to one unit per (seed, probe app): each unit's
	// harness is seeded by its own offset, so units are independent and the
	// per-seed aggregation below runs over units in serial order.
	type seedUnit struct {
		tp, fn, fp, uiHangs int
		bugs                map[string]bool
	}
	nApps := len(seedProbeApps)
	units, err := pool.Map(ctx.Workers(), nSeeds*nApps, func(u int) (seedUnit, error) {
		s, i := u/nApps, u%nApps
		a := ctx.Corpus.MustApp(seedProbeApps[i])
		d := core.New(core.Config{})
		h, err := runOn(ctx, a, appDevice(), uint64(7000+s*97+i), d)
		if err != nil {
			return seedUnit{}, err
		}
		ev := h.Evaluate(d)
		bugs := map[string]bool{}
		for id := range matchDetections(a, d.Detections()) {
			bugs[id] = true
		}
		return seedUnit{tp: ev.TP, fn: ev.FN, fp: ev.FP, uiHangs: ev.UIHangs, bugs: bugs}, nil
	})
	if err != nil {
		return nil, err
	}
	var recalls, fpShares, bugCounts []float64
	for s := 0; s < nSeeds; s++ {
		var tp, fn, fp, uiHangs int
		bugs := map[string]bool{}
		for i := 0; i < nApps; i++ {
			u := units[s*nApps+i]
			tp += u.tp
			fn += u.fn
			fp += u.fp
			uiHangs += u.uiHangs
			for id := range u.bugs {
				bugs[id] = true
			}
		}
		recall := 0.0
		if tp+fn > 0 {
			recall = float64(tp) / float64(tp+fn)
		}
		fpShare := 0.0
		if uiHangs > 0 {
			fpShare = float64(fp) / float64(uiHangs)
		}
		recalls = append(recalls, recall)
		fpShares = append(fpShares, fpShare)
		bugCounts = append(bugCounts, float64(len(bugs)))
		out.Table.Add(itoa(s), f2(recall), f2(fpShare), itoa(len(bugs)))
	}
	out.Recall = newSeedStat(recalls)
	out.FPShare = newSeedStat(fpShares)
	out.BugsFound = newSeedStat(bugCounts)
	out.Table.Add("mean", f2(out.Recall.Mean), f2(out.FPShare.Mean), f1(out.BugsFound.Mean))
	out.Table.Notes = append(out.Table.Notes,
		fmt.Sprintf("recall range [%.2f, %.2f]; FP share range [%.2f, %.2f]; bugs found range [%.0f, %.0f] of %d seeded",
			out.Recall.Min, out.Recall.Max, out.FPShare.Min, out.FPShare.Max,
			out.BugsFound.Min, out.BugsFound.Max, probeBugCount(ctx)))
	return out, nil
}

func probeBugCount(ctx *Context) int {
	n := 0
	for _, name := range seedProbeApps {
		n += len(ctx.Corpus.MustApp(name).Bugs)
	}
	return n
}
