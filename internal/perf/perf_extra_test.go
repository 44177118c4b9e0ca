package perf

import (
	"math"
	"testing"

	"hangdoctor/internal/cpu"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

func TestOpenPanicsOnEmptyInputs(t *testing.T) {
	clk := simclock.New()
	s := cpu.New(clk, 1)
	th := s.NewThread("x")
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("no threads", func() { Open(clk, nil, []Event{TaskClock}, Config{}) })
	mustPanic("no events", func() { Open(clk, []*cpu.Thread{th}, nil, Config{}) })
}

func TestSampleEveryPanics(t *testing.T) {
	clk := simclock.New()
	s := cpu.New(clk, 1)
	th := s.NewThread("x")
	sess := Open(clk, []*cpu.Thread{th}, []Event{TaskClock}, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive interval accepted")
		}
	}()
	sess.SampleEvery(0)
}

func TestSampleEveryAfterStopPanics(t *testing.T) {
	clk := simclock.New()
	s := cpu.New(clk, 1)
	th := s.NewThread("x")
	sess := Open(clk, []*cpu.Thread{th}, []Event{TaskClock}, Config{})
	sess.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("SampleEvery on stopped session accepted")
		}
	}()
	sess.SampleEvery(simclock.Millisecond)
}

func TestReadingWindow(t *testing.T) {
	clk := simclock.New()
	s := cpu.New(clk, 1)
	th := s.NewThread("x")
	sess := Open(clk, []*cpu.Thread{th}, []Event{TaskClock}, Config{})
	th.Enqueue(cpu.Compute(30*simclock.Millisecond, nil, nil))
	clk.RunUntil(simclock.Time(45 * simclock.Millisecond))
	r := sess.Stop()
	if got := r.End.Sub(r.Start); got != 45*simclock.Millisecond {
		t.Fatalf("window = %v", got)
	}
}

func TestEventStringAndBounds(t *testing.T) {
	if ContextSwitches.String() != "context-switches" {
		t.Fatalf("String() = %q", ContextSwitches.String())
	}
	if got := Event(-1).Name(); got != "event(-1)" {
		t.Fatalf("out-of-range name = %q", got)
	}
	if got := Event(1000).Name(); got != "event(1000)" {
		t.Fatalf("out-of-range name = %q", got)
	}
}

func TestBaselineCoversEveryEvent(t *testing.T) {
	// Every PMU event must have a baseline rate: a zero baseline would make
	// the noise model silently skip it and overstate its correlation.
	for _, e := range AllEvents() {
		if e == AlignmentFaults || e == EmulationFaults {
			continue // genuinely near-zero events
		}
		if baselinePerSec(e) <= 0 {
			t.Errorf("event %v has no baseline rate", e)
		}
	}
}

func TestKernelSigmaScalePositive(t *testing.T) {
	for e := Event(0); e < numKernelEvents; e++ {
		if kernelSigmaScale(e) <= 0 {
			t.Errorf("event %v has non-positive sigma scale", e)
		}
	}
}

func TestNoiseSqrtWindowScaling(t *testing.T) {
	// Thread-specific noise must grow sub-linearly with the window: the
	// relative spread of a 4x longer window is ~2x, not 4x.
	rng := simrand.New(99)
	spread := func(window simclock.Duration) float64 {
		var sumsq float64
		const trials = 400
		n := DefaultNoise(rng.Derive(window.String()))
		for i := 0; i < trials; i++ {
			g := 1.0 // isolate eps: fixed common factor
			v := n.contribution(ContextSwitches, float64(window)/1e9, g)
			base := baselinePerSec(ContextSwitches) * float64(window) / 1e9 * g
			d := v - base
			sumsq += d * d
		}
		return math.Sqrt(sumsq / trials)
	}
	s1 := spread(400 * simclock.Millisecond)
	s4 := spread(1600 * simclock.Millisecond)
	ratio := s4 / s1
	if ratio < 1.4 || ratio > 3.0 {
		t.Fatalf("noise spread ratio over 4x window = %.2f, want ~2 (sqrt scaling)", ratio)
	}
}

func TestNoiseNonNegative(t *testing.T) {
	rng := simrand.New(123)
	n := DefaultNoise(rng)
	for i := 0; i < 5000; i++ {
		g := n.commonFactor()
		for _, e := range []Event{ContextSwitches, TaskClock, PageFaults, Instructions} {
			if v := n.contribution(e, 0.5, g); v < 0 {
				t.Fatalf("negative noise contribution %v for %v", v, e)
			}
		}
	}
}

func TestBaseScaleZeroDisablesBaseline(t *testing.T) {
	rng := simrand.New(7)
	n := DefaultNoise(rng)
	n.BaseScale = 0
	if v := n.contribution(ContextSwitches, 1, 1.5); v != 0 {
		t.Fatalf("BaseScale=0 contribution = %v", v)
	}
}

func TestGalaxyS3RegistersIncreaseMuxError(t *testing.T) {
	// Fewer PMU registers -> larger multiplexing error on an oversubscribed
	// session (the Galaxy S3 device model has 4).
	run := func(regs int, seed uint64) float64 {
		var relSum float64
		const trials = 60
		rng := simrand.New(seed)
		for i := 0; i < trials; i++ {
			clk := simclock.New()
			s := cpu.New(clk, 1)
			th := s.NewThread("x")
			var rates cpu.Rates
			rates.HW[Instructions.HWIndex()] = 2e9
			var events []Event
			for _, e := range AllEvents() {
				if !e.Kernel() {
					events = append(events, e)
				}
			}
			sess := Open(clk, []*cpu.Thread{th}, events, Config{Registers: regs, Rng: rng})
			th.Enqueue(cpu.Compute(100*simclock.Millisecond, &rates, nil))
			clk.RunUntilIdle(100000)
			r := sess.Stop()
			truth := 200_000_000.0
			relSum += math.Abs(float64(r.Value(0, Instructions))-truth) / truth
		}
		return relSum / trials
	}
	err6 := run(6, 5)
	err4 := run(4, 5)
	if err4 <= err6 {
		t.Fatalf("4 registers error %.4f not above 6 registers %.4f", err4, err6)
	}
}
