// Package obs is the repo-wide observability layer: lock-free Counter,
// Gauge, and fixed-bucket Histogram primitives over sync/atomic, organized
// into a Registry of named (optionally labeled) families with deterministic
// sorted snapshots and Prometheus text-format exposition.
//
// Every subsystem that used to keep ad-hoc counters — core.Health and
// core.Telemetry, fleet.Metrics, fault injection stats, the experiment
// worker pool — registers here instead, so there is exactly one way to ask
// "how is this process doing" (Registry.Snapshot) and one wire format to
// scrape it (Registry.WritePrometheus).
//
// Hot-path contract: Counter.Inc/Add, Gauge.Set/Add, and Histogram.Observe
// on an already-obtained handle are lock-free, wait-free apart from the
// histogram sum's CAS loop, and perform zero heap allocations. Handles are
// obtained once at setup time (Registry.Counter, Vec.With, ...), which may
// allocate and take the registry lock; callers cache them.
//
// Snapshots are deterministic: families sort by name, series by label
// values, so two snapshots of registries holding the same values render
// byte-identically — the property the exposition tests pin down.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing metric (events since process
// start). The zero value is usable but unregistered; obtain registered
// counters from a Registry.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must be non-negative (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: Counter.Add with negative delta")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways (queue depth,
// capacity, temperature).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative deltas allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicF64 is a float64 accumulated with a CAS loop over its bit pattern;
// it backs the histogram sum without a lock or an allocation.
type atomicF64 struct {
	bits atomic.Uint64
}

func (a *atomicF64) add(v float64) {
	for {
		old := a.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (a *atomicF64) load() float64 { return math.Float64frombits(a.bits.Load()) }

// Histogram is a fixed-bucket latency/size distribution. Buckets follow the
// Prometheus convention: bucket i counts observations v <= Bounds[i]
// (upper-inclusive), plus one implicit +Inf overflow bucket. Observe is
// lock-free and allocation-free.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds, excluding +Inf
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomicF64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("obs: histogram bounds must be finite")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// SearchFloat64s returns the first index with bounds[i] >= v, which is
	// exactly the first upper-inclusive bucket that admits v; values above
	// every bound land on the +Inf bucket at len(bounds).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.add(v)
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// snapshot copies the bucket counts once. Count is derived from the copied
// buckets (not read separately), so a snapshot is always internally
// consistent even while observations land concurrently.
func (h *Histogram) snapshot() HistogramSnapshot {
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return HistogramSnapshot{
		Bounds: h.bounds,
		Counts: counts,
		Count:  total,
		Sum:    h.sum.load(),
	}
}

// ExpBuckets returns n bounds start, start*factor, start*factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets needs n > 0, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
