package stats

import (
	"math"
	"testing"
	"testing/quick"

	"hangdoctor/internal/simrand"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPearsonPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); !almost(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, neg); !almost(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", got)
	}
}

func TestPearsonConstantVector(t *testing.T) {
	x := []float64{3, 3, 3}
	y := []float64{1, 2, 3}
	if got := Pearson(x, y); got != 0 {
		t.Fatalf("constant vector Pearson = %v, want 0", got)
	}
}

func TestPearsonMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

func TestPearsonKnownValue(t *testing.T) {
	// Hand-computed example.
	x := []float64{1, 2, 3, 4}
	y := []float64{1, 3, 2, 5}
	if got := Pearson(x, y); !almost(got, 0.8315218406, 1e-6) {
		t.Fatalf("Pearson = %v", got)
	}
}

func TestPearsonSymmetricAndBounded(t *testing.T) {
	rng := simrand.New(4)
	f := func(seed uint32) bool {
		r := rng.Derive(string(rune(seed)))
		n := 3 + r.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 10
			y[i] = r.NormFloat64() * 10
		}
		p1, p2 := Pearson(x, y), Pearson(y, x)
		if !almost(p1, p2, 1e-12) {
			return false
		}
		return p1 >= -1-1e-12 && p1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonInvariantToAffineTransform(t *testing.T) {
	rng := simrand.New(8)
	x := make([]float64, 40)
	y := make([]float64, 40)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = x[i] + rng.NormFloat64()*0.5
	}
	p := Pearson(x, y)
	scaled := make([]float64, len(x))
	for i := range x {
		scaled[i] = 3*x[i] + 7
	}
	if got := Pearson(scaled, y); !almost(got, p, 1e-9) {
		t.Fatalf("affine transform changed correlation: %v vs %v", got, p)
	}
}

func TestMeanAndQuantile(t *testing.T) {
	x := []float64{4, 1, 3, 2}
	if got := Mean(x); !almost(got, 2.5, 1e-12) {
		t.Fatalf("Mean = %v", got)
	}
	if got := Quantile(x, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(x, 1); got != 4 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(x, 0.5); !almost(got, 2.5, 1e-12) {
		t.Fatalf("median = %v", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}

func TestRankByCorrelation(t *testing.T) {
	labels := []float64{1, 1, 1, 0, 0, 0}
	samples := map[string][]float64{
		"strong": {10, 11, 12, 1, 2, 3},
		"weak":   {5, 1, 9, 4, 6, 2},
		"anti":   {1, 2, 3, 10, 11, 12},
	}
	r := RankByCorrelation(samples, labels)
	if r[0].Name != "strong" || r[len(r)-1].Name != "anti" {
		t.Fatalf("ranking = %+v", r)
	}
	if got := TopNames(r, 2); len(got) != 2 || got[0] != "strong" {
		t.Fatalf("TopNames = %v", got)
	}
	if got := TopNames(r, 10); len(got) != 3 {
		t.Fatalf("TopNames overflow = %v", got)
	}
}

func TestSubsampleAndOverlap(t *testing.T) {
	rng := simrand.New(5)
	labels := make([]float64, 60)
	strong := make([]float64, 60)
	noise := make([]float64, 60)
	for i := range labels {
		if i < 30 {
			labels[i] = 1
			strong[i] = 100 + rng.NormFloat64()*5
		} else {
			strong[i] = 10 + rng.NormFloat64()*5
		}
		noise[i] = rng.NormFloat64()
	}
	samples := map[string][]float64{"strong": strong, "noise": noise}
	full := RankByCorrelation(samples, labels)
	sub := Subsample(samples, labels, 0.5, rng)
	if len(sub) != 2 {
		t.Fatalf("sub ranking size = %d", len(sub))
	}
	// A strong separator stays on top in any half of the data.
	if sub[0].Name != "strong" {
		t.Fatalf("subsample ranking = %+v", sub)
	}
	if got := OverlapCount(full, sub, 1); got != 1 {
		t.Fatalf("overlap = %d", got)
	}
}

func TestGreedySelectSingleEventSuffices(t *testing.T) {
	labels := []float64{1, 1, 1, 0, 0, 0}
	samples := map[string][]float64{
		"good": {10, 12, 11, 1, 2, 3},
		"bad":  {1, 1, 1, 1, 1, 1},
	}
	ranking := RankByCorrelation(samples, labels)
	sel := GreedySelect(ranking, samples, labels, 5)
	if len(sel.Conditions) != 1 || sel.Conditions[0].Name != "good" {
		t.Fatalf("conditions = %+v", sel.Conditions)
	}
	if sel.FalseNegatives != 0 || sel.FalsePositives != 0 {
		t.Fatalf("confusion = %+v", sel)
	}
	if sel.TruePositives != 3 || sel.TrueNegatives != 3 {
		t.Fatalf("confusion = %+v", sel)
	}
	thr := sel.Conditions[0].Threshold
	if thr <= 3 || thr >= 10 {
		t.Fatalf("threshold = %v, want separating gap (3,10)", thr)
	}
}

func TestGreedySelectNeedsTwoEvents(t *testing.T) {
	// Bugs 0-1 separable by event A, bugs 2-3 only by event B.
	labels := []float64{1, 1, 1, 1, 0, 0, 0, 0}
	samples := map[string][]float64{
		"A": {50, 60, 0, 0, 1, 2, 1, 2},
		"B": {0, 0, 70, 80, 3, 1, 2, 3},
	}
	ranking := RankByCorrelation(samples, labels)
	sel := GreedySelect(ranking, samples, labels, 5)
	if len(sel.Conditions) != 2 {
		t.Fatalf("conditions = %+v, want 2", sel.Conditions)
	}
	if sel.FalseNegatives != 0 {
		t.Fatalf("FN = %d, want 0", sel.FalseNegatives)
	}
	if sel.FalsePositives != 0 {
		t.Fatalf("FP = %d", sel.FalsePositives)
	}
}

func TestGreedySelectSkipsUselessEvents(t *testing.T) {
	labels := []float64{1, 1, 0, 0}
	samples := map[string][]float64{
		"useless": {5, 5, 5, 5}, // constant: correlation 0 but try anyway
		"good":    {9, 8, 1, 2},
	}
	ranking := []Ranked{{Name: "useless", Coeff: 0.9}, {Name: "good", Coeff: 0.5}}
	sel := GreedySelect(ranking, samples, labels, 5)
	for _, c := range sel.Conditions {
		if c.Name == "useless" {
			t.Fatalf("useless event selected: %+v", sel.Conditions)
		}
	}
	if sel.FalseNegatives != 0 {
		t.Fatalf("FN = %d", sel.FalseNegatives)
	}
}

func TestGreedySelectRespectsMaxEvents(t *testing.T) {
	// Each bug needs its own event; cap at 2.
	labels := []float64{1, 1, 1, 0}
	samples := map[string][]float64{
		"A": {9, 0, 0, 1},
		"B": {0, 9, 0, 1},
		"C": {0, 0, 9, 1},
	}
	ranking := RankByCorrelation(samples, labels)
	sel := GreedySelect(ranking, samples, labels, 2)
	if len(sel.Conditions) > 2 {
		t.Fatalf("conditions = %d, want <= 2", len(sel.Conditions))
	}
	if sel.FalseNegatives != 1 {
		t.Fatalf("FN = %d, want 1 (third bug uncatchable)", sel.FalseNegatives)
	}
}

func TestQuantileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestSpearmanMonotoneNonlinear(t *testing.T) {
	// y = x^3 is perfectly monotone: Spearman 1, Pearson < 1.
	x := []float64{-3, -2, -1, 0, 1, 2, 3}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = v * v * v
	}
	if got := Spearman(x, y); !almost(got, 1, 1e-12) {
		t.Fatalf("Spearman = %v, want 1", got)
	}
	if p := Pearson(x, y); p >= 1-1e-9 {
		t.Fatalf("Pearson = %v, expected < 1 on cubic", p)
	}
}

func TestSpearmanTies(t *testing.T) {
	x := []float64{1, 2, 2, 3}
	y := []float64{10, 20, 20, 30}
	if got := Spearman(x, y); !almost(got, 1, 1e-12) {
		t.Fatalf("Spearman with ties = %v, want 1", got)
	}
}

func TestSpearmanMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Spearman([]float64{1}, []float64{1, 2})
}

func TestRanksAverageTies(t *testing.T) {
	r := ranks([]float64{5, 1, 5, 3})
	want := []float64{3.5, 1, 3.5, 2}
	for i := range r {
		if !almost(r[i], want[i], 1e-12) {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestRankBySpearman(t *testing.T) {
	labels := []float64{1, 1, 1, 0, 0, 0}
	samples := map[string][]float64{
		"strong": {100, 900, 400, 1, 2, 3}, // monotone separation, nonlinear scale
		"noise":  {5, 1, 9, 4, 6, 2},
	}
	r := RankBySpearman(samples, labels)
	if r[0].Name != "strong" {
		t.Fatalf("ranking = %+v", r)
	}
}
