package experiments

import (
	"fmt"

	"hangdoctor/internal/core"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/detect"
	"hangdoctor/internal/stats"
)

// ImpactRow is one detector's responsiveness footprint.
type ImpactRow struct {
	Detector string
	// MeanMs / P95Ms of action response times with the detector's costs
	// executing as real work on a monitoring thread.
	MeanMs, P95Ms float64
	// InflationPct is the mean response-time increase vs the unmonitored
	// baseline run.
	InflationPct float64
}

// Impact verifies the paper's §4.5 closing claim — "Hang Doctor has also a
// negligible impact on apps' ... responsiveness" — mechanically: detector
// costs are injected as real CPU work on a monitoring thread that contends
// with the app, and the resulting response-time distributions are compared
// against an unmonitored run of the same trace.
type Impact struct {
	Table      TextTable
	Rows       []ImpactRow
	BaselineMs float64
}

// Render implements Result.
func (i *Impact) Render() string { return i.Table.Render() }

// RunImpact measures response-time inflation for HD and the heavier
// baselines on K9-Mail.
func RunImpact(ctx *Context) (*Impact, error) {
	a := ctx.Corpus.MustApp("K9-Mail")
	trace := corpus.Trace(a, ctx.Seed, ctx.Scale.TracePerApp)
	low, high, err := detect.CalibrateUT(a, appDevice(), ctx.Seed+77, trace)
	if err != nil {
		return nil, err
	}
	_ = high

	run := func(det detect.Detector, inject bool) ([]float64, error) {
		var dets []detect.Detector
		if det != nil {
			dets = append(dets, det)
		}
		h, err := detect.NewHarness(a, appDevice(), ctx.Seed, dets...)
		if err != nil {
			return nil, err
		}
		if inject && det != nil {
			h.EnableCostInjection()
		}
		h.Run(trace, ctx.Scale.Think)
		rts := make([]float64, len(h.Execs))
		for i, e := range h.Execs {
			rts[i] = e.ResponseTime().Milliseconds()
		}
		return rts, nil
	}

	base, err := run(nil, false)
	if err != nil {
		return nil, err
	}
	out := &Impact{
		BaselineMs: stats.Mean(base),
		Table: TextTable{
			Title:  "Responsiveness impact of monitoring (detector costs run as real work)",
			Header: []string{"Detector", "mean RT", "P95 RT", "inflation vs unmonitored"},
		},
	}
	out.Table.Add("(none)", fmt.Sprintf("%.1fms", out.BaselineMs),
		fmt.Sprintf("%.1fms", stats.Quantile(base, 0.95)), "-")

	rosters := []struct {
		name string
		mk   func() detect.Detector
	}{
		{"HD", func() detect.Detector { return core.New(core.Config{}) }},
		{"TI", func() detect.Detector { return detect.NewTimeout(detect.PerceivableDelay) }},
		{"UTL", func() detect.Detector { return detect.NewUtilization("UTL", low, false, 0) }},
	}
	for _, r := range rosters {
		rts, err := run(r.mk(), true)
		if err != nil {
			return nil, err
		}
		row := ImpactRow{
			Detector: r.name,
			MeanMs:   stats.Mean(rts),
			P95Ms:    stats.Quantile(rts, 0.95),
		}
		row.InflationPct = 100 * (row.MeanMs - out.BaselineMs) / out.BaselineMs
		out.Rows = append(out.Rows, row)
		out.Table.Add(r.name, fmt.Sprintf("%.1fms", row.MeanMs),
			fmt.Sprintf("%.1fms", row.P95Ms), fmt.Sprintf("%+.2f%%", row.InflationPct))
	}
	out.Table.Notes = append(out.Table.Notes,
		"paper §4.5: Hang Doctor has a negligible impact on apps' responsiveness; heavier samplers contend visibly")
	return out, nil
}
