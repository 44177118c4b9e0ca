package fault

import (
	"testing"

	"hangdoctor/internal/simclock"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if in.PerfOpenFails() || in.CounterDropped() || in.RenderUnavailable() || in.StackMissed() {
		t.Fatal("nil injector fired a fault")
	}
	if kept, ok := in.TruncateTo(8); ok || kept != 8 {
		t.Fatalf("nil injector truncated: kept=%d ok=%v", kept, ok)
	}
	if extra, ok := in.OverrunExtra(20 * simclock.Millisecond); ok || extra != 0 {
		t.Fatalf("nil injector overran: extra=%v ok=%v", extra, ok)
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector stats = %+v", s)
	}
}

func TestZeroRatesNeverFireAndNeverDraw(t *testing.T) {
	in := New(7, Rates{})
	for i := 0; i < 1000; i++ {
		if in.PerfOpenFails() || in.CounterDropped() || in.RenderUnavailable() ||
			in.StackMissed() {
			t.Fatal("zero-rate injector fired")
		}
		if _, ok := in.TruncateTo(10); ok {
			t.Fatal("zero-rate injector truncated")
		}
		if _, ok := in.OverrunExtra(simclock.Millisecond); ok {
			t.Fatal("zero-rate injector overran")
		}
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("stats after zero-rate run = %+v", s)
	}
}

func TestRateOneAlwaysFires(t *testing.T) {
	in := New(7, Rates{
		PerfOpenFail: 1, CounterDrop: 1, RenderLoss: 1,
		StackMiss: 1, StackTruncate: 1, SamplerOverrun: 1,
	})
	for i := 0; i < 100; i++ {
		if !in.PerfOpenFails() || !in.CounterDropped() || !in.RenderUnavailable() || !in.StackMissed() {
			t.Fatal("rate-1 fault did not fire")
		}
		kept, ok := in.TruncateTo(10)
		if !ok || kept < 1 || kept >= 10 {
			t.Fatalf("truncation kept %d of 10 (ok=%v)", kept, ok)
		}
		extra, ok := in.OverrunExtra(20 * simclock.Millisecond)
		if !ok || extra < 20*simclock.Millisecond || extra > 60*simclock.Millisecond {
			t.Fatalf("overrun extra = %v (ok=%v)", extra, ok)
		}
	}
	s := in.Stats()
	if s.PerfOpenFails != 100 || s.CountersDropped != 100 || s.RenderLosses != 100 ||
		s.StacksMissed != 100 || s.StacksTruncated != 100 || s.SamplerOverruns != 100 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTruncationNeverEatsLeafOrShallowStacks(t *testing.T) {
	in := New(3, Rates{StackTruncate: 1})
	for _, depth := range []int{0, 1} {
		if kept, ok := in.TruncateTo(depth); ok || kept != depth {
			t.Fatalf("depth-%d stack truncated to %d", depth, kept)
		}
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	rates := Rates{PerfOpenFail: 0.3, CounterDrop: 0.5, StackMiss: 0.7, StackTruncate: 0.4, SamplerOverrun: 0.2, RenderLoss: 0.1}
	a, b := New(42, rates), New(42, rates)
	for i := 0; i < 500; i++ {
		if a.PerfOpenFails() != b.PerfOpenFails() ||
			a.CounterDropped() != b.CounterDropped() ||
			a.RenderUnavailable() != b.RenderUnavailable() ||
			a.StackMissed() != b.StackMissed() {
			t.Fatalf("decision %d diverged between same-seed injectors", i)
		}
		ka, oka := a.TruncateTo(12)
		kb, okb := b.TruncateTo(12)
		if ka != kb || oka != okb {
			t.Fatalf("truncation %d diverged: %d/%v vs %d/%v", i, ka, oka, kb, okb)
		}
		ea, oka := a.OverrunExtra(simclock.Millisecond)
		eb, okb := b.OverrunExtra(simclock.Millisecond)
		if ea != eb || oka != okb {
			t.Fatalf("overrun %d diverged", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestFaultKindsAreIndependentStreams(t *testing.T) {
	// Turning one fault on must not change another kind's decisions.
	both := New(9, Rates{StackMiss: 0.5, CounterDrop: 0.5})
	only := New(9, Rates{StackMiss: 0.5})
	for i := 0; i < 300; i++ {
		both.CounterDropped() // extra draws on the counter stream
		if both.StackMissed() != only.StackMissed() {
			t.Fatalf("stack decision %d perturbed by counter stream", i)
		}
	}
}
