package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeBasics covers the scalar metric contracts.
func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_events_total", "events")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative Counter.Add did not panic")
			}
		}()
		c.Add(-1)
	}()

	g := r.Gauge("t_depth", "depth")
	g.Set(10)
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}

	// Registration is idempotent: same name returns the same metric.
	if r.Counter("t_events_total", "events") != c {
		t.Error("re-registration returned a different counter")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind conflict did not panic")
			}
		}()
		r.Gauge("t_events_total", "events")
	}()
}

// TestHistogramBucketBoundaries pins the upper-inclusive le convention at
// the exact edges: a value equal to a bound lands in that bound's bucket,
// the next representable value above it in the next one, and values beyond
// every bound in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_lat_ms", "latency", []float64{1, 10, 100})

	h.Observe(0)                        // <= 1
	h.Observe(1)                        // == first bound → bucket 0
	h.Observe(math.Nextafter(1, 2))     // just above → bucket 1
	h.Observe(10)                       // == second bound → bucket 1
	h.Observe(100)                      // == last bound → bucket 2
	h.Observe(math.Nextafter(100, 200)) // just above last bound → +Inf
	h.Observe(math.MaxFloat64)          // deep overflow → +Inf
	h.Observe(-5)                       // below every bound → bucket 0

	hs := h.snapshot()
	want := []uint64{3, 2, 1, 2}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if hs.Count != 8 {
		t.Errorf("count = %d, want 8", hs.Count)
	}
	wantSum := 0.0 + 1 + math.Nextafter(1, 2) + 10 + 100 + math.Nextafter(100, 200) + math.MaxFloat64 - 5
	if hs.Sum != wantSum {
		t.Errorf("sum = %g, want %g", hs.Sum, wantSum)
	}
}

// TestHistogramQuantile checks the interpolation math on a known shape.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_q_ms", "q", []float64{10, 20, 40})
	// 10 observations uniformly in (0,10], 10 in (10,20].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	hs := h.snapshot()
	if p50 := hs.Quantile(0.5); p50 != 10 {
		t.Errorf("p50 = %g, want 10", p50)
	}
	if p75 := hs.Quantile(0.75); p75 != 15 {
		t.Errorf("p75 = %g, want 15", p75)
	}
	if p100 := hs.Quantile(1); p100 != 20 {
		t.Errorf("p100 = %g, want 20", p100)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g, want 0", q)
	}
	// Overflow observations clamp to the largest finite bound.
	h.Observe(1e9)
	if q := h.snapshot().Quantile(0.999); q != 40 {
		t.Errorf("overflow quantile = %g, want clamp to 40", q)
	}
}

// TestInvalidRegistrations pins the panics that catch naming bugs early.
func TestInvalidRegistrations(t *testing.T) {
	r := NewRegistry()
	for name, fn := range map[string]func(){
		"bad metric name":  func() { r.Counter("9bad", "") },
		"empty name":       func() { r.Counter("", "") },
		"bad label":        func() { r.GaugeVec("t_ok", "", "bad-label") },
		"empty buckets":    func() { r.Histogram("t_h", "", nil) },
		"unsorted buckets": func() { r.Histogram("t_h2", "", []float64{5, 1}) },
		"nan bucket":       func() { r.Histogram("t_h3", "", []float64{math.NaN()}) },
		"label arity":      func() { r.GaugeVec("t_vec", "", "a", "b").With("only-one") },
		"bucket conflict":  func() { r.Histogram("t_h4", "", []float64{1}); r.Histogram("t_h4", "", []float64{2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestDeterministicExposition: two registries populated in different orders
// render byte-identical text, and repeated snapshots of one registry are
// stable.
func TestDeterministicExposition(t *testing.T) {
	build := func(reverse bool) *Registry {
		r := NewRegistry()
		names := []string{"t_a_total", "t_b_total", "t_c_total"}
		if reverse {
			for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
				names[i], names[j] = names[j], names[i]
			}
		}
		values := map[string]int64{"t_a_total": 1, "t_b_total": 2, "t_c_total": 3}
		for _, n := range names {
			r.Counter(n, "help "+n).Add(values[n])
		}
		vec := r.GaugeVec("t_shard_entries", "per shard", "shard")
		order := []string{"2", "0", "1"}
		if reverse {
			order = []string{"1", "0", "2"}
		}
		for _, s := range order {
			vec.With(s).Set(int64(s[0]-'0') + 7)
		}
		h := r.Histogram("t_lat_ms", "latency", []float64{1, 5, 25})
		for _, v := range []float64{0.5, 3, 3, 60} {
			h.Observe(v)
		}
		return r
	}
	a := build(false)
	b := build(true)
	var sa, sb strings.Builder
	if err := a.WritePrometheus(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sa.String() != sb.String() {
		t.Errorf("exposition depends on registration order:\n--- a ---\n%s\n--- b ---\n%s", sa.String(), sb.String())
	}
	var again strings.Builder
	a.WritePrometheus(&again)
	if sa.String() != again.String() {
		t.Error("repeated exposition of one registry not byte-identical")
	}

	// Shape checks: TYPE lines, labeled series, cumulative buckets.
	text := sa.String()
	for _, want := range []string{
		"# TYPE t_a_total counter\nt_a_total 1\n",
		"# TYPE t_shard_entries gauge\n",
		`t_shard_entries{shard="0"} 7`,
		`t_lat_ms_bucket{le="1"} 1`,
		`t_lat_ms_bucket{le="5"} 3`,
		`t_lat_ms_bucket{le="25"} 3`,
		`t_lat_ms_bucket{le="+Inf"} 4`,
		"t_lat_ms_sum 66.5",
		"t_lat_ms_count 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestCallbackMetrics: CounterFunc/GaugeFunc project live variables into
// snapshots without double bookkeeping.
func TestCallbackMetrics(t *testing.T) {
	r := NewRegistry()
	n := int64(0)
	r.CounterFunc("t_live_total", "live", func() int64 { return n })
	depth := 3
	r.GaugeFunc("t_live_depth", "depth", func() int64 { return int64(depth) })
	n, depth = 42, 9
	s := r.Snapshot()
	if got := s.Value("t_live_total"); got != 42 {
		t.Errorf("counterfunc = %d, want 42", got)
	}
	if got := s.Value("t_live_depth"); got != 9 {
		t.Errorf("gaugefunc = %d, want 9", got)
	}
	// Re-registration replaces the callback (re-attach semantics).
	r.CounterFunc("t_live_total", "live", func() int64 { return 7 })
	if got := r.Snapshot().Value("t_live_total"); got != 7 {
		t.Errorf("replaced counterfunc = %d, want 7", got)
	}
}

// TestConcurrentHammering drives every metric kind from many goroutines
// while snapshots and expositions run — under -race this is the lock-free
// safety proof; afterwards the totals must be exact.
func TestConcurrentHammering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_hammer_total", "hammer")
	g := r.Gauge("t_hammer_depth", "depth")
	h := r.Histogram("t_hammer_ms", "ms", ExpBuckets(1, 2, 10))
	vec := r.GaugeVec("t_hammer_kind", "by kind", "kind")
	kinds := []*Gauge{vec.With("a"), vec.With("b"), vec.With("c")}

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(w))
				h.Observe(float64(i % 700))
				kinds[(w+i)%len(kinds)].Set(int64(i))
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s := r.Snapshot()
					hs := s.Histogram("t_hammer_ms")
					var sum uint64
					for _, b := range hs.Counts {
						sum += b
					}
					if sum != hs.Count {
						t.Error("histogram snapshot internally inconsistent")
						return
					}
					var b strings.Builder
					s.WriteTo(&b)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	const total = workers * perWorker
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if v := g.Value(); v < 0 || v >= workers {
		t.Errorf("gauge = %d, want the last worker's index in [0, %d)", v, workers)
	}
	if n := h.snapshot().Count; n != total {
		t.Errorf("histogram count = %d, want %d", n, total)
	}
	for _, k := range kinds {
		if v := k.Value(); v < 0 || v >= perWorker {
			t.Errorf("labeled gauge = %d, want a draw in [0, %d)", v, perWorker)
		}
	}
}

// TestMergeSnapshots: merged counters sum, histograms add bucket-wise, and
// the result stays deterministic.
func TestMergeSnapshots(t *testing.T) {
	mk := func(n int64, obsv ...float64) Snapshot {
		r := NewRegistry()
		r.Counter("t_m_total", "m").Add(n)
		h := r.Histogram("t_m_ms", "ms", []float64{1, 10})
		for _, v := range obsv {
			h.Observe(v)
		}
		r.GaugeVec("t_m_by", "by", "k").With("x").Set(n)
		return r.Snapshot()
	}
	m := MergeSnapshots(mk(3, 0.5, 20), mk(4, 5))
	if got := m.Value("t_m_total"); got != 7 {
		t.Errorf("merged counter = %d, want 7", got)
	}
	hs := m.Histogram("t_m_ms")
	if hs.Count != 3 || hs.Counts[0] != 1 || hs.Counts[1] != 1 || hs.Counts[2] != 1 {
		t.Errorf("merged histogram = %+v", hs)
	}
	if hs.Sum != 25.5 {
		t.Errorf("merged sum = %g, want 25.5", hs.Sum)
	}
	fam := m.Family("t_m_by")
	if fam == nil || len(fam.Series) != 1 || fam.Series[0].Value != 7 {
		t.Errorf("merged labeled gauge = %+v", fam)
	}
}

// TestHotPathZeroAlloc is the acceptance criterion: warm Inc/Set/Observe on
// cached handles never touch the heap.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_alloc_total", "alloc")
	g := r.Gauge("t_alloc_depth", "alloc")
	h := r.Histogram("t_alloc_ms", "alloc", ExpBuckets(1, 2, 14))
	lg := r.GaugeVec("t_alloc_kind", "alloc", "kind").With("warm")
	if allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		g.Set(9)
		h.Observe(17)
		h.Observe(123456)
		lg.Set(2)
	}); allocs != 0 {
		t.Fatalf("hot path allocates %.1f objects/op, want 0", allocs)
	}
}
