package core

import (
	"fmt"
	"testing"

	"hangdoctor/internal/android/api"
	"hangdoctor/internal/stack"
)

// causalBenchSamples synthesizes the tagged-sample population of an
// await-parked hang: main thread in FutureTask.get, workers split across
// two chains so escalation has to group and pick a dominant one.
func causalBenchSamples(mainN, workerN int) []stack.Tagged {
	awaitStack := frames("java.util.concurrent.FutureTask.get", "app.Main.onClick", "android.os.Looper.loop")
	workStack := frames("com.demo.db.Store.query", "com.demo.task.Loader.run")
	otherStack := frames("com.demo.net.Http.fetch", "com.demo.task.Prefetch.run")
	origin := stack.Origin{ActionUID: "Demo/Open", Site: "com.demo.task.Loader.run", Kind: "submit"}
	other := stack.Origin{ActionUID: "Demo/Scroll", Site: "com.demo.task.Prefetch.run", Kind: "submit"}
	var out []stack.Tagged
	for i := 0; i < mainN; i++ {
		out = append(out, stack.Tagged{Stack: awaitStack})
	}
	for i := 0; i < workerN; i++ {
		if i%3 == 0 {
			out = append(out, stack.Tagged{Stack: otherStack, Origin: other, Worker: true})
		} else {
			out = append(out, stack.Tagged{Stack: workStack, Origin: origin, Worker: true})
		}
	}
	return out
}

// BenchmarkCausalAnalyze measures the causal analyzer's steady-state cost on
// the escalation path (await verdict → chain grouping → second occurrence
// pass). cmd/benchgate fails CI's bench job if a row allocates.
func BenchmarkCausalAnalyze(b *testing.B) {
	reg := api.NewRegistry()
	for _, tc := range []struct{ mainN, workerN int }{
		{16, 16},
		{64, 64},
		{256, 128},
	} {
		samples := causalBenchSamples(tc.mainN, tc.workerN)
		b.Run(fmt.Sprintf("main=%d/worker=%d", tc.mainN, tc.workerN), func(b *testing.B) {
			var ta TraceAnalyzer
			ca := NewCausalAnalyzer(&ta)
			if _, _, _, ok := ca.Analyze(samples, reg, 0.5); !ok {
				b.Fatal("no diagnosis")
			}
			var sink int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, _, _, ok := ca.Analyze(samples, reg, 0.5)
				if !ok {
					b.Fatal("no diagnosis")
				}
				sink += d.Line
			}
			_ = sink
		})
	}
}
