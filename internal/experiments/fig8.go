package experiments

import (
	"fmt"

	"hangdoctor/internal/core"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/detect"
	"hangdoctor/internal/experiments/pool"
)

// Fig8Apps are the representative apps the paper plots in Figure 8.
var Fig8Apps = []string{"AndStatus", "CycleStreets", "K9-Mail", "Omni-Notes", "UOITDC Booking"}

// Fig8Row holds one detector's results on one app.
type Fig8Row struct {
	App      string
	Detector string
	TP, FP   int
	// NormTP and NormFP are normalized to the TI baseline on the same app.
	NormTP, NormFP float64
	Overhead       float64
}

// Fig8 reproduces the paper's Figure 8: detection performance (true and
// false positives normalized to the Timeout baseline) and overhead, for
// Hang Doctor against TI, UTL, UTH, UTL+TI, UTH+TI.
type Fig8 struct {
	Table TextTable
	Rows  []Fig8Row
	// AvgNormTP / AvgNormFP / AvgOverhead per detector across apps.
	AvgNormTP, AvgNormFP, AvgOverhead map[string]float64
}

// Name implements Result.
func (f *Fig8) Name() string { return "fig8" }

// Render implements Result.
func (f *Fig8) Render() string { return f.Table.Render() }

// fig8Detectors builds the detector roster for one app (UT thresholds are
// calibrated per app, as in §4.1).
func fig8Detectors(ctx *Context, appName string) (map[string]func() detect.Detector, error) {
	a := ctx.Corpus.MustApp(appName)
	calTrace := corpus.Trace(a, ctx.Seed+77, ctx.Scale.TracePerApp)
	low, high, err := detect.CalibrateUT(a, appDevice(), ctx.Seed+77, calTrace)
	if err != nil {
		return nil, fmt.Errorf("calibrating %s: %w", appName, err)
	}
	return map[string]func() detect.Detector{
		"HD":     func() detect.Detector { return core.New(core.Config{}) },
		"TI":     func() detect.Detector { return detect.NewTimeout(detect.PerceivableDelay) },
		"UTL":    func() detect.Detector { return detect.NewUtilization("UTL", low, false, 0) },
		"UTH":    func() detect.Detector { return detect.NewUtilization("UTH", high, false, 0) },
		"UTL+TI": func() detect.Detector { return detect.NewUtilization("UTL", low, true, 0) },
		"UTH+TI": func() detect.Detector { return detect.NewUtilization("UTH", high, true, 0) },
	}, nil
}

// Fig8Detectors is the display order.
var Fig8Detectors = []string{"HD", "TI", "UTL", "UTH", "UTL+TI", "UTH+TI"}

// RunFig8 runs every detector over every representative app on identical
// traces.
func RunFig8(ctx *Context) (*Fig8, error) {
	out := &Fig8{
		AvgNormTP:   map[string]float64{},
		AvgNormFP:   map[string]float64{},
		AvgOverhead: map[string]float64{},
		Table: TextTable{
			Title:  "Figure 8: detection performance and overhead (normalized to TI)",
			Header: []string{"App", "Detector", "TP", "FP", "TP/TI", "FP/TI", "Overhead%"},
		},
	}
	// One work unit per representative app: calibration and all six
	// detector runs for that app. Units share only the read-only trace
	// cache; rows merge below in Fig8Apps × Fig8Detectors order, so the
	// float averages accumulate exactly as in a serial run.
	perApp, err := pool.Map(ctx.Workers(), len(Fig8Apps), func(i int) (map[string]Fig8Row, error) {
		appName := Fig8Apps[i]
		a := ctx.Corpus.MustApp(appName)
		roster, err := fig8Detectors(ctx, appName)
		if err != nil {
			return nil, err
		}
		results := map[string]Fig8Row{}
		for _, name := range Fig8Detectors {
			det := roster[name]()
			h, err := runOn(ctx, a, appDevice(), 0, det)
			if err != nil {
				return nil, err
			}
			ev := h.Evaluate(det)
			results[name] = Fig8Row{
				App: appName, Detector: name,
				TP: ev.TP, FP: ev.FP,
				Overhead: h.Overhead(det).Avg(),
			}
		}
		return results, nil
	})
	if err != nil {
		return nil, err
	}
	for _, results := range perApp {
		ti := results["TI"]
		for _, name := range Fig8Detectors {
			r := results[name]
			if ti.TP > 0 {
				r.NormTP = float64(r.TP) / float64(ti.TP)
			}
			if ti.FP > 0 {
				r.NormFP = float64(r.FP) / float64(ti.FP)
			}
			out.Rows = append(out.Rows, r)
			out.AvgNormTP[name] += r.NormTP / float64(len(Fig8Apps))
			out.AvgNormFP[name] += r.NormFP / float64(len(Fig8Apps))
			out.AvgOverhead[name] += r.Overhead / float64(len(Fig8Apps))
			out.Table.Add(r.App, r.Detector, itoa(r.TP), itoa(r.FP),
				f2(r.NormTP), f2(r.NormFP), f2(r.Overhead))
		}
	}
	for _, name := range Fig8Detectors {
		out.Table.Add("AVERAGE", name, "", "",
			f2(out.AvgNormTP[name]), f2(out.AvgNormFP[name]), f2(out.AvgOverhead[name]))
	}
	out.Table.Notes = append(out.Table.Notes,
		"paper: HD traces ~80% of TI's TPs with <10% of its FPs; UTL floods 8-22x FPs; UTH misses 62% of TPs",
		"paper overheads: UTL~25%, UTH~10%, TI~2.26%, HD~0.83%, UTH+TI~0.58%")
	return out, nil
}
