package core

import (
	"testing"
	"unsafe"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/cpu"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/stack"
)

// TestAnalyzeTracesZeroAlloc pins the tentpole acceptance criterion: a warm
// TraceAnalyzer diagnoses a corpus-shaped hang with zero heap allocations.
// Any map revival, string building, or scratch reallocation in the hot path
// fails this test immediately.
func TestAnalyzeTracesZeroAlloc(t *testing.T) {
	c := corpus.Shared()
	traces := corpus.SampledTraces(c.MustApp("K9-Mail"), 42, 64)
	if len(traces) == 0 {
		t.Fatal("no traces")
	}
	var ta TraceAnalyzer
	if _, ok := ta.Analyze(traces, c.Registry, 0.5); !ok {
		t.Fatal("warm-up produced no diagnosis")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := ta.Analyze(traces, c.Registry, 0.5); !ok {
			t.Fatal("no diagnosis")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Analyze allocates %.1f objects per hang, want 0", allocs)
	}
}

// TestAnalyzerScratchSize pins the analyzer's per-symbol scratch at 56
// bytes: a Doctor sizes it to its registry's symbols on its first
// diagnosis, all in one allocation.
func TestAnalyzerScratchSize(t *testing.T) {
	if n := unsafe.Sizeof(symScratch{}); n > 56 {
		t.Fatalf("per-symbol scratch is %d bytes, want at most 56", n)
	}
}

// TestSamplerPathZeroAlloc covers the other per-sample hot loop: dumping the
// main thread's stack and appending it to the Doctor's reused trace buffer.
// Dispatch stacks are precomputed and fault injection is off, so the whole
// sample must be pointer shuffling — no copies, no key strings.
func TestSamplerPathZeroAlloc(t *testing.T) {
	c := corpus.Shared()
	a := c.MustApp("K9-Mail")
	s, err := app.NewSession(a, app.LGV10(), 7)
	if err != nil {
		t.Fatal(err)
	}
	st := corpus.DispatchStacks(a)[0]
	// Park the main thread inside a long Compute so CurrentStack sees it,
	// exactly as the sampler does mid-hang.
	s.MainThread().Enqueue(cpu.Compute(simclock.Duration(1e12), nil, st))
	if got := s.MainThread().State(); got != cpu.Running {
		t.Fatalf("main thread state = %v, want Running", got)
	}
	curTraces := make([]*stack.Stack, 0, 256) // warm, as Doctor reuses it
	allocs := testing.AllocsPerRun(100, func() {
		curTraces = curTraces[:0]
		for i := 0; i < 32; i++ {
			dump, missed, _ := s.SampleMainStack()
			if dump == nil || missed {
				t.Fatal("sample lost without fault injection")
			}
			curTraces = append(curTraces, dump)
		}
	})
	if allocs != 0 {
		t.Fatalf("sampler path allocates %.1f objects per hang, want 0", allocs)
	}
}
