package obs

import (
	"testing"
)

// BenchmarkObsCounterInc measures the counter hot path; cmd/benchgate fails
// CI's bench job if it, the parallel variant or BenchmarkObsHistogramObserve
// allocates or is missing.
func BenchmarkObsCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_events_total", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkObsCounterIncParallel is the contended variant: many goroutines
// on one counter (the fleet accept path under load).
func BenchmarkObsCounterIncParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_events_total", "bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkObsHistogramObserve measures the histogram hot path — binary
// search plus two atomic updates; it must not allocate.
func BenchmarkObsHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_latency_ms", "bench", ExpBuckets(1, 2, 14))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 1023))
	}
}

// BenchmarkObsSnapshot sizes the read path on a registry shaped like a
// Doctor's (a few dozen families).
func BenchmarkObsSnapshot(b *testing.B) {
	r := NewRegistry()
	for _, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		r.Counter("bench_"+n+"_total", "bench").Add(int64(len(n)))
	}
	h := r.Histogram("bench_latency_ms", "bench", ExpBuckets(1, 2, 14))
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}
