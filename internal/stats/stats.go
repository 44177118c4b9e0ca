// Package stats implements the statistical machinery behind S-Checker's
// design (§3.3.1 of the paper): Pearson correlation of performance-event
// samples against soft-hang-bug labels, correlation-ordered ranking of
// events, the greedy minimize-false-negatives-then-false-positives threshold
// search that selects the filter's events, and the training-set sensitivity
// analysis of Table 4.
package stats

import (
	"fmt"
	"math"
	"sort"

	"hangdoctor/internal/simrand"
)

// Pearson returns the Pearson correlation coefficient of x and y. It panics
// on length mismatch and returns 0 when either vector is constant (no
// variance means no linear relationship to measure).
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: Pearson length mismatch %d vs %d", len(x), len(y)))
	}
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Quantile returns the q-quantile (0..1) of x by linear interpolation on the
// sorted copy. It panics on an empty slice.
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		panic("stats: Quantile of empty slice")
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return SortedQuantile(s, q)
}

// SortedQuantile is Quantile over s, which the caller has already sorted
// ascending; it neither copies nor allocates. It panics on an empty slice.
func SortedQuantile(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Ranked is one row of a correlation table.
type Ranked struct {
	Name  string
	Coeff float64
}

// RankByCorrelation computes Pearson(sample vector, labels) for every named
// sample vector and returns rows sorted by coefficient descending (ties
// broken by name for determinism). labels uses 1 for soft hang bug, 0 for
// UI operation.
func RankByCorrelation(samples map[string][]float64, labels []float64) []Ranked {
	out := make([]Ranked, 0, len(samples))
	for name, vec := range samples {
		out = append(out, Ranked{Name: name, Coeff: Pearson(vec, labels)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Coeff != out[j].Coeff {
			return out[i].Coeff > out[j].Coeff
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TopNames returns the first k names of a ranking.
func TopNames(r []Ranked, k int) []string {
	if k > len(r) {
		k = len(r)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = r[i].Name
	}
	return out
}

// Subsample returns the ranking computed on a random fraction frac of the
// sample indices (the paper's Table 4 procedure: rerun the correlation
// analysis on 75% and 50% training sets).
func Subsample(samples map[string][]float64, labels []float64, frac float64, rng *simrand.Rand) []Ranked {
	n := len(labels)
	keep := int(math.Round(float64(n) * frac))
	if keep < 2 {
		keep = 2
	}
	perm := rng.Perm(n)[:keep]
	sort.Ints(perm)
	subLabels := make([]float64, keep)
	for i, idx := range perm {
		subLabels[i] = labels[idx]
	}
	sub := make(map[string][]float64, len(samples))
	for name, vec := range samples {
		sv := make([]float64, keep)
		for i, idx := range perm {
			sv[i] = vec[idx]
		}
		sub[name] = sv
	}
	return RankByCorrelation(sub, subLabels)
}

// OverlapCount returns how many of the first k names two rankings share
// (order-insensitive), the Table 4 stability measure.
func OverlapCount(a, b []Ranked, k int) int {
	inA := map[string]bool{}
	for _, name := range TopNames(a, k) {
		inA[name] = true
	}
	n := 0
	for _, name := range TopNames(b, k) {
		if inA[name] {
			n++
		}
	}
	return n
}

// Condition is one selected filter condition: flag as suspicious when the
// event's value exceeds Threshold.
type Condition struct {
	Name      string
	Threshold float64
}

// Selection is the outcome of the greedy filter design: the chosen
// conditions and the residual confusion counts on the training set.
type Selection struct {
	Conditions     []Condition
	FalseNegatives int
	FalsePositives int
	TruePositives  int
	TrueNegatives  int
}

// bestThreshold finds, for one event, the threshold that best
// *distinguishes* bugs from UI samples given the conditions selected so
// far: it minimizes total residual errors (uncaught bugs plus flagged UI
// samples), breaking ties toward fewer false negatives and then toward the
// larger (more conservative) threshold. This is the paper's per-event step
// — "the best threshold that distinguishes soft hang bugs from UI-APIs by
// minimizing false positives and false negatives" — with residual false
// negatives left for the next event in the greedy OR-union.
//
// A *distinguishing constraint* additionally excludes degenerate
// thresholds: a condition is only admissible if it flags at most half of
// the UI samples; without it, heavily overlapped classes drive the search
// to "flag nearly everything", the opposite of the paper's filter whose
// thresholds sit above the bulk of the UI distribution (Figure 4). The
// flag-nothing sentinel always satisfies the constraint, so a result
// always exists.
func bestThreshold(vec []float64, labels []float64, caught []bool) (thr float64, fn, newFP int) {
	type pt struct{ v, label float64 }
	var pts []pt
	for i := range vec {
		pts = append(pts, pt{vec[i], labels[i]})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].v < pts[j].v })
	candidates := []float64{pts[0].v - 1}
	for i := 1; i < len(pts); i++ {
		if pts[i].v != pts[i-1].v {
			candidates = append(candidates, (pts[i].v+pts[i-1].v)/2)
		}
	}
	candidates = append(candidates, pts[len(pts)-1].v+1)

	negatives := 0
	for i := range labels {
		if labels[i] == 0 {
			negatives++
		}
	}
	fpCap := negatives / 2

	bestFN, bestFP := math.MaxInt32, math.MaxInt32
	bestThr := candidates[len(candidates)-1]
	for _, c := range candidates {
		fnC, fpC := 0, 0
		for i := range vec {
			flagged := caught[i] || vec[i] > c
			if labels[i] == 1 && !flagged {
				fnC++
			}
			if labels[i] == 0 && vec[i] > c {
				fpC++
			}
		}
		if fpC > fpCap {
			continue // not a distinguishing threshold
		}
		better := fnC+fpC < bestFN+bestFP ||
			(fnC+fpC == bestFN+bestFP && fnC < bestFN) ||
			(fnC+fpC == bestFN+bestFP && fnC == bestFN && c > bestThr)
		if better {
			bestFN, bestFP, bestThr = fnC, fpC, c
		}
	}
	return bestThr, bestFN, bestFP
}

// GreedySelect implements the paper's filter-design procedure: walk events
// in correlation order; for each, pick the threshold that minimizes false
// negatives first and false positives second given the conditions selected
// so far; keep adding events until every training bug is caught by at least
// one condition (or maxEvents is reached). Events whose best condition
// catches no additional bug are skipped.
func GreedySelect(ranking []Ranked, samples map[string][]float64, labels []float64, maxEvents int) Selection {
	n := len(labels)
	caught := make([]bool, n)
	flagged := make([]bool, n)
	var sel Selection

	remainingFN := func() int {
		fn := 0
		for i := range labels {
			if labels[i] == 1 && !caught[i] {
				fn++
			}
		}
		return fn
	}

	for _, r := range ranking {
		if len(sel.Conditions) >= maxEvents || remainingFN() == 0 {
			break
		}
		vec, ok := samples[r.Name]
		if !ok {
			continue
		}
		before := remainingFN()
		thr, fnAfter, _ := bestThreshold(vec, labels, caught)
		if fnAfter >= before {
			continue // adds nothing
		}
		sel.Conditions = append(sel.Conditions, Condition{Name: r.Name, Threshold: thr})
		for i := range labels {
			if vec[i] > thr {
				flagged[i] = true
				if labels[i] == 1 {
					caught[i] = true
				}
			}
		}
	}

	for i := range labels {
		switch {
		case labels[i] == 1 && caught[i]:
			sel.TruePositives++
		case labels[i] == 1:
			sel.FalseNegatives++
		case flagged[i]:
			sel.FalsePositives++
		default:
			sel.TrueNegatives++
		}
	}
	return sel
}

// Spearman returns the Spearman rank-correlation coefficient of x and y:
// Pearson correlation on ranks, capturing monotone non-linear relationships.
// The paper leaves non-linear correlation as future work (§3.3.1); this is
// the standard first step. Ties receive average ranks.
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: Spearman length mismatch %d vs %d", len(x), len(y)))
	}
	return Pearson(ranks(x), ranks(y))
}

// ranks converts values to average ranks (1-based).
func ranks(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// RankBySpearman mirrors RankByCorrelation using Spearman's coefficient.
func RankBySpearman(samples map[string][]float64, labels []float64) []Ranked {
	out := make([]Ranked, 0, len(samples))
	for name, vec := range samples {
		out = append(out, Ranked{Name: name, Coeff: Spearman(vec, labels)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Coeff != out[j].Coeff {
			return out[i].Coeff > out[j].Coeff
		}
		return out[i].Name < out[j].Name
	})
	return out
}
