package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Derive("sched")
	c2 := r.Derive("noise")
	// Deriving must not consume from the parent.
	r2 := New(7)
	if r.Uint64() != r2.Uint64() {
		t.Fatal("Derive consumed parent state")
	}
	// Distinct names give distinct streams.
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("derived streams for distinct names coincide")
	}
	// Same name gives identical streams.
	d1 := New(7).Derive("sched")
	d2 := New(7).Derive("sched")
	for i := 0; i < 100; i++ {
		if d1.Uint64() != d2.Uint64() {
			t.Fatalf("same-name derived streams diverged at draw %d", i)
		}
	}
}

// TestDeriveIntoMatchesDerive re-derives into a generator that already
// holds another stream and a cached Gaussian: the result must draw exactly
// what a fresh Derive of the same name draws.
func TestDeriveIntoMatchesDerive(t *testing.T) {
	root := New(5)
	dst := root.Derive("previous")
	dst.NormFloat64() // leaves the second Box-Muller value cached
	root.DeriveInto(dst, []byte("bg/1/42"))
	want := root.Derive("bg/1/42")
	for i := 0; i < 100; i++ {
		if a, b := dst.NormFloat64(), want.NormFloat64(); a != b {
			t.Fatalf("draw %d: DeriveInto gave %v, Derive %v", i, a, b)
		}
	}
	if n := testing.AllocsPerRun(100, func() { root.DeriveInto(dst, []byte("bg/1/42")) }); n != 0 {
		t.Fatalf("DeriveInto allocates %.1f objects, want 0", n)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	cfg := &quick.Config{MaxCount: 2000}
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	New(1).Int63n(0)
}

func TestInt63nUniformity(t *testing.T) {
	r := New(17)
	const buckets = 10
	const n = 100000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Int63n(buckets)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("bucket %d has fraction %v, want ~0.1", i, frac)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(23)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(31)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 2); v <= 0 {
			t.Fatalf("LogNormal produced non-positive value %v", v)
		}
	}
}

func TestJitterZeroSigma(t *testing.T) {
	r := New(1)
	if got := r.Jitter(12.5, 0); got != 12.5 {
		t.Fatalf("Jitter(x, 0) = %v, want 12.5", got)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := New(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency = %v", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	f := func(n uint8) bool {
		m := int(n % 64)
		p := r.Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedPick(t *testing.T) {
	r := New(29)
	weights := []float64{0, 1, 3, 0}
	const n = 100000
	var counts [4]int
	for i := 0; i < n; i++ {
		counts[r.WeightedPick(weights)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight buckets were picked: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedPickAllZero(t *testing.T) {
	r := New(37)
	weights := []float64{0, 0, 0}
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		idx := r.WeightedPick(weights)
		if idx < 0 || idx >= 3 {
			t.Fatalf("index out of range: %d", idx)
		}
		seen[idx] = true
	}
	if len(seen) != 3 {
		t.Fatalf("uniform fallback did not cover all buckets: %v", seen)
	}
}

func TestPickEmpty(t *testing.T) {
	if got := New(1).Pick(0); got != -1 {
		t.Fatalf("Pick(0) = %d, want -1", got)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(41)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}
