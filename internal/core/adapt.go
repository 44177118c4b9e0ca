package core

import (
	"fmt"

	"hangdoctor/internal/perf"
	"hangdoctor/internal/stats"
)

// LabeledReading is one S-Checker reading with its eventual ground-truth
// label, collected by the periodic data-collection task of the automatic
// filter adaptation extension (§3.3.1, "Automatic Adaptation of the
// Filter"). In a deployment the label comes from the Diagnoser's verdict on
// the same action; the simulation uses its ground truth, which is what the
// Diagnoser converges to.
type LabeledReading struct {
	ActionUID string
	// Values are the condition-event differences, aligned with the doctor's
	// Config.Conditions.
	Values []int64
	IsBug  bool
}

// AdaptResult describes what an adaptation pass decided.
type AdaptResult struct {
	// Light is true when threshold nudging sufficed; false means the heavy
	// (server-side) re-selection ran.
	Light bool
	// Conditions is the adapted condition set.
	Conditions []Condition
	// FN and FP are the residual errors on the collected data.
	FN, FP int
}

// LightAdapt nudges the existing thresholds to eliminate classification
// errors without changing the selected events: for each condition it
// searches the best threshold on the collected data (the low-overhead
// on-device pass). It returns ok=false when no threshold assignment removes
// every false negative, signalling that the heavy adaptation is needed.
func LightAdapt(conds []Condition, data []LabeledReading) (AdaptResult, bool) {
	if len(data) == 0 {
		return AdaptResult{Light: true, Conditions: conds}, true
	}
	samples := map[string][]float64{}
	labels := make([]float64, len(data))
	ranking := make([]stats.Ranked, len(conds))
	for i, c := range conds {
		name := c.Event.Name()
		vec := make([]float64, len(data))
		for j, d := range data {
			if len(d.Values) != len(conds) {
				return AdaptResult{}, false
			}
			vec[j] = float64(d.Values[i])
		}
		samples[name] = vec
		ranking[i] = stats.Ranked{Name: name, Coeff: 1 - float64(i)*1e-6} // keep order
	}
	for j, d := range data {
		if d.IsBug {
			labels[j] = 1
		}
	}
	sel := stats.GreedySelect(ranking, samples, labels, len(conds))
	out := AdaptResult{Light: true, FN: sel.FalseNegatives, FP: sel.FalsePositives}
	for _, sc := range sel.Conditions {
		ev, ok := perf.ParseEvent(sc.Name)
		if !ok {
			return AdaptResult{}, false
		}
		out.Conditions = append(out.Conditions, Condition{Event: ev, Threshold: int64(sc.Threshold)})
	}
	if sel.FalseNegatives > 0 || len(out.Conditions) == 0 {
		return out, false
	}
	return out, true
}

// HeavyReading is the richer sample the heavy adaptation consumes: the
// top-correlated event differences (not just the three in use).
type HeavyReading struct {
	Values map[perf.Event]int64
	IsBug  bool
}

// CandidateEvents is the wide event set the periodic data-collection task
// measures: the paper's Table 3(a) top-10.
func CandidateEvents() []perf.Event {
	return []perf.Event{
		perf.ContextSwitches, perf.TaskClock, perf.CPUClock,
		perf.PageFaults, perf.MinorFaults, perf.CPUMigrations,
		perf.CacheMisses, perf.Instructions, perf.CacheReferences,
		perf.RawL1DcacheRefill,
	}
}

// HeavyAdapt is the server-side pass: re-run the full §3.3.1 design
// procedure (correlation ranking + greedy selection) over a wider event
// set, possibly choosing different events. maxEvents bounds the filter
// size.
func HeavyAdapt(events []perf.Event, data []HeavyReading, maxEvents int) (AdaptResult, error) {
	if len(data) == 0 {
		return AdaptResult{}, fmt.Errorf("core: no adaptation data")
	}
	samples := map[string][]float64{}
	labels := make([]float64, len(data))
	for _, ev := range events {
		vec := make([]float64, len(data))
		for j, d := range data {
			vec[j] = float64(d.Values[ev])
		}
		samples[ev.Name()] = vec
	}
	for j, d := range data {
		if d.IsBug {
			labels[j] = 1
		}
	}
	ranking := stats.RankByCorrelation(samples, labels)
	sel := stats.GreedySelect(ranking, samples, labels, maxEvents)
	out := AdaptResult{Light: false, FN: sel.FalseNegatives, FP: sel.FalsePositives}
	for _, sc := range sel.Conditions {
		ev, ok := perf.ParseEvent(sc.Name)
		if !ok {
			return AdaptResult{}, fmt.Errorf("core: unknown event %q from selection", sc.Name)
		}
		out.Conditions = append(out.Conditions, Condition{Event: ev, Threshold: int64(sc.Threshold)})
	}
	if len(out.Conditions) == 0 {
		return out, fmt.Errorf("core: heavy adaptation selected no conditions")
	}
	return out, nil
}
