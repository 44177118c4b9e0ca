package core

import (
	"fmt"
	"testing"

	"hangdoctor/internal/corpus"
)

// BenchmarkAnalyzeTraces measures the Trace Analyzer's steady-state cost on
// corpus-derived sampled-stack sets at several stack depths (apps with
// different wrapper-chain shapes) and sample counts (short vs long hangs).
// The trace sets are synthesized once outside the timed loop — exactly what
// the Diagnoser hands the Trace Analyzer per traced soft hang — so ns/op and
// allocs/op isolate the analysis itself. CI records these rows in
// BENCH_diagnoser.json.
func BenchmarkAnalyzeTraces(b *testing.B) {
	c := corpus.Shared()
	cases := []struct {
		app     string
		samples int
	}{
		{"K9-Mail", 16},
		{"K9-Mail", 64},
		{"K9-Mail", 256},
		{"SageMath", 64},   // closed-source wrapper nesting: deepest stacks
		{"AndStatus", 64},  // shallow attribute-heavy stacks
		{"AntennaPod", 64}, // multi-event actions
	}
	for _, tc := range cases {
		a := c.MustApp(tc.app)
		traces := corpus.SampledTraces(a, 1234, tc.samples)
		b.Run(fmt.Sprintf("app=%s/samples=%d", tc.app, tc.samples), func(b *testing.B) {
			// Steady state: one Doctor-shaped analyzer reused across hangs,
			// warmed once so scratch growth is outside the measurement.
			var ta TraceAnalyzer
			if _, ok := ta.Analyze(traces, c.Registry, 0.5); !ok {
				b.Fatal("no diagnosis")
			}
			var sink int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, ok := ta.Analyze(traces, c.Registry, 0.5)
				if !ok {
					b.Fatal("no diagnosis")
				}
				sink += d.Line
			}
			_ = sink
		})
	}
}
