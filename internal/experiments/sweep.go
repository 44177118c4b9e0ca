package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// SweepPoint is one operating point of a single-event filter condition.
type SweepPoint struct {
	Threshold float64
	// TPR: fraction of soft-hang-bug samples above the threshold.
	TPR float64
	// FPR: fraction of UI samples above the threshold.
	FPR float64
}

// Youden returns TPR-FPR, the balance statistic the sweep optimizes.
func (p SweepPoint) Youden() float64 { return p.TPR - p.FPR }

// ThresholdSweep charts, for each of the paper's three filter events, how
// detection quality moves with the threshold — the analysis behind Figure
// 4's threshold placement. For every event it reports the full ROC-style
// curve on the training samples, the threshold maximizing Youden's J, and
// where the paper's published threshold sits relative to it.
type ThresholdSweep struct {
	Text string
	// Curves per event name.
	Curves map[string][]SweepPoint
	// BestThreshold per event (max Youden).
	BestThreshold map[string]float64
	// PaperPoint per event: the operating point at the paper's threshold.
	PaperPoint map[string]SweepPoint
}

// Render implements Result.
func (s *ThresholdSweep) Render() string { return s.Text }

// paperThresholds are §3.3.1's published values.
var paperThresholds = map[string]float64{
	"context-switches": 0,
	"task-clock":       1.7e8,
	"page-faults":      500,
}

// RunThresholdSweep computes the curves on the Table-3 training samples.
func RunThresholdSweep(ctx *Context) (*ThresholdSweep, error) {
	t3, err := RunTable3(ctx)
	if err != nil {
		return nil, err
	}
	set := t3.Samples
	out := &ThresholdSweep{
		Curves:        map[string][]SweepPoint{},
		BestThreshold: map[string]float64{},
		PaperPoint:    map[string]SweepPoint{},
	}

	var b strings.Builder
	b.WriteString("== Threshold sweep: detection quality vs filter threshold ==\n")
	var names []string
	for name := range paperThresholds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vec := set.Diff[name]
		pointAt := func(thr float64) SweepPoint {
			var tpAbove, bugs, fpAbove, uis int
			for i, v := range vec {
				if set.Labels[i] == 1 {
					bugs++
					if v > thr {
						tpAbove++
					}
				} else {
					uis++
					if v > thr {
						fpAbove++
					}
				}
			}
			return SweepPoint{
				Threshold: thr,
				TPR:       float64(tpAbove) / float64(bugs),
				FPR:       float64(fpAbove) / float64(uis),
			}
		}
		// Candidate thresholds: midpoints of the sorted sample values.
		sorted := append([]float64(nil), vec...)
		sort.Float64s(sorted)
		var curve []SweepPoint
		best := SweepPoint{Threshold: math.Inf(1), TPR: 0, FPR: 0}
		add := func(thr float64) {
			p := pointAt(thr)
			curve = append(curve, p)
			if p.Youden() > best.Youden() {
				best = p
			}
		}
		add(sorted[0] - 1)
		for i := 1; i < len(sorted); i++ {
			if sorted[i] != sorted[i-1] {
				add((sorted[i] + sorted[i-1]) / 2)
			}
		}
		add(sorted[len(sorted)-1] + 1)

		out.Curves[name] = curve
		out.BestThreshold[name] = best.Threshold
		paper := pointAt(paperThresholds[name])
		out.PaperPoint[name] = paper

		fmt.Fprintf(&b, "%s:\n", name)
		fmt.Fprintf(&b, "  best threshold (max TPR-FPR): %.4g -> TPR %.0f%%, FPR %.0f%%\n",
			best.Threshold, 100*best.TPR, 100*best.FPR)
		fmt.Fprintf(&b, "  paper threshold %.4g          -> TPR %.0f%%, FPR %.0f%% (J gap %.2f)\n",
			paperThresholds[name], 100*paper.TPR, 100*paper.FPR, best.Youden()-paper.Youden())
		// A coarse 10-step curve for the record.
		step := len(curve) / 10
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(curve); i += step {
			p := curve[i]
			fmt.Fprintf(&b, "    thr %-12.4g TPR %5.1f%%  FPR %5.1f%%\n", p.Threshold, 100*p.TPR, 100*p.FPR)
		}
	}
	b.WriteString("single events trade TPR against FPR; the paper resolves the tension by OR-ing three complementary events\n")
	out.Text = b.String()
	return out, nil
}
