package perf

import (
	"testing"
	"testing/quick"

	"hangdoctor/internal/cpu"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

func TestEventCatalog(t *testing.T) {
	if NumEvents != 46 {
		t.Fatalf("NumEvents = %d, want 46 (the paper's catalog size)", NumEvents)
	}
	kernel := 0
	seen := map[string]bool{}
	for _, e := range AllEvents() {
		name := e.Name()
		if name == "" || seen[name] {
			t.Fatalf("bad or duplicate event name %q", name)
		}
		seen[name] = true
		if e.Kernel() {
			kernel++
		}
	}
	if kernel != 9 {
		t.Fatalf("kernel events = %d, want 9", kernel)
	}
}

func TestParseEventRoundTrip(t *testing.T) {
	for _, e := range AllEvents() {
		got, ok := ParseEvent(e.Name())
		if !ok || got != e {
			t.Fatalf("ParseEvent(%q) = %v, %v", e.Name(), got, ok)
		}
	}
	if _, ok := ParseEvent("not-an-event"); ok {
		t.Fatal("ParseEvent accepted garbage")
	}
}

func TestHWIndexPanicsForKernel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ContextSwitches.HWIndex()
}

func TestReadCounterMapping(t *testing.T) {
	var c cpu.Counters
	c.TaskClock = 111
	c.CPUClock = 222
	c.VoluntaryCtxSwitches = 3
	c.InvoluntaryCtxSwitch = 4
	c.MinorFaults = 10
	c.MajorFaults = 2
	c.Migrations = 5
	c.HW[Instructions.HWIndex()] = 999
	cases := []struct {
		e    Event
		want int64
	}{
		{TaskClock, 111}, {CPUClock, 222}, {ContextSwitches, 7},
		{PageFaults, 12}, {MinorFaults, 10}, {MajorFaults, 2},
		{CPUMigrations, 5}, {Instructions, 999},
	}
	for _, tc := range cases {
		if got := ReadCounter(c, tc.e); got != tc.want {
			t.Errorf("ReadCounter(%v) = %d, want %d", tc.e, got, tc.want)
		}
	}
}

// runWorkload executes a compute+block program on two threads and returns
// them with their shared clock.
func runWorkload(t *testing.T) (*simclock.Clock, *cpu.Thread, *cpu.Thread) {
	t.Helper()
	clk := simclock.New()
	s := cpu.New(clk, 2)
	main := s.NewThread("main")
	render := s.NewThread("render")
	return clk, main, render
}

func TestSessionExactWithoutNoise(t *testing.T) {
	clk, main, render := runWorkload(t)
	var rates cpu.Rates
	rates.MinorFaults = 2000
	rates.HW[Instructions.HWIndex()] = 1e9
	sess := Open(clk, []*cpu.Thread{main, render}, []Event{TaskClock, PageFaults, Instructions, ContextSwitches}, Config{})
	main.Enqueue(cpu.Compute(100*simclock.Millisecond, &rates, nil))
	render.Enqueue(cpu.Compute(40*simclock.Millisecond, nil, nil))
	clk.RunUntilIdle(100000)
	r := sess.Stop()
	if got := r.Value(0, TaskClock); got != int64(100*simclock.Millisecond) {
		t.Fatalf("main task-clock = %d, want 100ms", got)
	}
	if got := r.Value(1, TaskClock); got != int64(40*simclock.Millisecond) {
		t.Fatalf("render task-clock = %d, want 40ms", got)
	}
	if got := r.Value(0, PageFaults); got != 200 {
		t.Fatalf("main page-faults = %d, want 200", got)
	}
	if got := r.Value(0, Instructions); got != 100_000_000 {
		t.Fatalf("main instructions = %d, want 1e8", got)
	}
	if got := r.Diff(TaskClock); got != int64(60*simclock.Millisecond) {
		t.Fatalf("task-clock diff = %d, want 60ms", got)
	}
}

func TestSessionCountsOnlyItsWindow(t *testing.T) {
	clk, main, _ := runWorkload(t)
	main.Enqueue(cpu.Compute(50*simclock.Millisecond, nil, nil))
	clk.RunUntilIdle(100000)
	// Open after the first burst: it must not be visible.
	sess := Open(clk, []*cpu.Thread{main}, []Event{TaskClock}, Config{})
	main.Enqueue(cpu.Compute(30*simclock.Millisecond, nil, nil))
	clk.RunUntilIdle(100000)
	r := sess.Stop()
	if got := r.Value(0, TaskClock); got != int64(30*simclock.Millisecond) {
		t.Fatalf("windowed task-clock = %d, want 30ms", got)
	}
}

func TestDoubleStopPanics(t *testing.T) {
	clk, main, _ := runWorkload(t)
	sess := Open(clk, []*cpu.Thread{main}, []Event{TaskClock}, Config{})
	sess.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double Stop")
		}
	}()
	sess.Stop()
}

func TestMultiplexingError(t *testing.T) {
	// With all 37 PMU events on 6 registers, estimates must deviate from
	// truth; with 6 or fewer they must be exact (no noise model).
	rng := simrand.New(5)
	run := func(events []Event) (got, want int64) {
		clk, main, _ := runWorkload(t)
		var rates cpu.Rates
		rates.HW[Instructions.HWIndex()] = 2e9
		sess := Open(clk, []*cpu.Thread{main}, events, Config{Rng: rng})
		main.Enqueue(cpu.Compute(200*simclock.Millisecond, &rates, nil))
		clk.RunUntilIdle(100000)
		r := sess.Stop()
		return r.Value(0, Instructions), 400_000_000
	}
	var all []Event
	for _, e := range AllEvents() {
		if !e.Kernel() {
			all = append(all, e)
		}
	}
	got, want := run(all)
	if got == want {
		t.Fatalf("oversubscribed PMU read was exact (%d); expected multiplexing error", got)
	}
	// Error should still be within a sane band (±50%).
	if got < want/2 || got > want*2 {
		t.Fatalf("multiplexing error too large: got %d, want ~%d", got, want)
	}
	got2, want2 := run([]Event{Instructions, Cycles})
	if got2 != want2 {
		t.Fatalf("undersubscribed PMU read = %d, want exact %d", got2, want2)
	}
}

func TestKernelEventsNeverMultiplexed(t *testing.T) {
	rng := simrand.New(6)
	clk, main, _ := runWorkload(t)
	events := append([]Event{TaskClock}, func() []Event {
		var pmu []Event
		for _, e := range AllEvents() {
			if !e.Kernel() {
				pmu = append(pmu, e)
			}
		}
		return pmu
	}()...)
	sess := Open(clk, []*cpu.Thread{main}, events, Config{Rng: rng})
	main.Enqueue(cpu.Compute(80*simclock.Millisecond, nil, nil))
	clk.RunUntilIdle(100000)
	r := sess.Stop()
	if got := r.Value(0, TaskClock); got != int64(80*simclock.Millisecond) {
		t.Fatalf("kernel event perturbed by multiplexing: %d", got)
	}
}

func TestNoiseCommonModeCancelsInDiff(t *testing.T) {
	// With a noise model, the main-only reading must be noisier (relative to
	// truth) than the main-minus-render difference for a kernel event whose
	// true per-thread values are equal. Run many windows and compare spreads.
	rng := simrand.New(7)
	noise := DefaultNoise(rng)
	var diffDev, soloDev float64
	const trials = 300
	for i := 0; i < trials; i++ {
		clk := simclock.New()
		s := cpu.New(clk, 2)
		main := s.NewThread("main")
		render := s.NewThread("render")
		sess := Open(clk, []*cpu.Thread{main, render}, []Event{TaskClock}, Config{Noise: noise, Rng: rng})
		main.Enqueue(cpu.Compute(100*simclock.Millisecond, nil, nil))
		render.Enqueue(cpu.Compute(100*simclock.Millisecond, nil, nil))
		clk.RunUntilIdle(100000)
		r := sess.Stop()
		d := float64(r.Diff(TaskClock)) // truth: 0
		sv := float64(r.Value(0, TaskClock)) - float64(100*simclock.Millisecond)
		diffDev += d * d
		soloDev += sv * sv
	}
	if diffDev >= soloDev {
		t.Fatalf("common-mode noise did not cancel in diff: diffVar=%g soloVar=%g", diffDev, soloDev)
	}
}

func TestSampleEvery(t *testing.T) {
	clk, main, render := runWorkload(t)
	sess := Open(clk, []*cpu.Thread{main, render}, []Event{TaskClock}, Config{})
	sess.SampleEvery(100 * simclock.Millisecond)
	main.Enqueue(cpu.Compute(350*simclock.Millisecond, nil, nil))
	clk.RunUntil(simclock.Time(500 * simclock.Millisecond))
	r := sess.Stop()
	samples := sess.Samples()
	if len(samples) != 5 {
		t.Fatalf("got %d samples, want 5 over 500ms", len(samples))
	}
	// First three windows: full 100ms of main compute each.
	for i := 0; i < 3; i++ {
		if got := samples[i].PerThread[0][0]; got != int64(100*simclock.Millisecond) {
			t.Fatalf("sample %d main task-clock = %d, want 100ms", i, got)
		}
	}
	// Window 4 has the 50ms tail, window 5 is idle.
	if got := samples[3].PerThread[0][0]; got != int64(50*simclock.Millisecond) {
		t.Fatalf("sample 3 main task-clock = %d, want 50ms", got)
	}
	if got := samples[4].PerThread[0][0]; got != 0 {
		t.Fatalf("sample 4 main task-clock = %d, want 0", got)
	}
	// Full-window reading still covers everything.
	if got := r.Value(0, TaskClock); got != int64(350*simclock.Millisecond) {
		t.Fatalf("final reading = %d, want 350ms", got)
	}
}

func TestSamplingStopsAtStop(t *testing.T) {
	clk, main, _ := runWorkload(t)
	sess := Open(clk, []*cpu.Thread{main}, []Event{TaskClock}, Config{})
	sess.SampleEvery(10 * simclock.Millisecond)
	clk.RunUntil(simclock.Time(35 * simclock.Millisecond))
	sess.Stop()
	n := len(sess.Samples())
	clk.RunUntil(simclock.Time(200 * simclock.Millisecond))
	if len(sess.Samples()) != n {
		t.Fatal("sampling continued after Stop")
	}
}

func TestSessionCost(t *testing.T) {
	clk, main, render := runWorkload(t)
	sess := Open(clk, []*cpu.Thread{main, render}, []Event{TaskClock, PageFaults, ContextSwitches}, Config{})
	if sess.CostNs() != CostOpenNs {
		t.Fatalf("open cost = %d", sess.CostNs())
	}
	sess.Stop()
	want := int64(CostOpenNs + 2*3*CostReadPerCounterNs)
	if got := sess.CostNs(); got != want {
		t.Fatalf("total cost = %d, want %d", got, want)
	}
}

func TestReadingValueUnknownEventPanics(t *testing.T) {
	clk, main, _ := runWorkload(t)
	sess := Open(clk, []*cpu.Thread{main}, []Event{TaskClock}, Config{})
	r := sess.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Value(0, PageFaults)
}

// Property: without noise, readings are non-negative and additive across
// consecutive sample windows (sum of window deltas == full-window reading).
func TestSampleAdditivityProperty(t *testing.T) {
	rng := simrand.New(321)
	f := func(seed uint32) bool {
		r := rng.Derive(string(rune(seed)))
		clk := simclock.New()
		s := cpu.New(clk, 2)
		main := s.NewThread("main")
		var rates cpu.Rates
		rates.MinorFaults = float64(1000 + r.Intn(5000))
		total := simclock.Duration(50+r.Intn(300)) * simclock.Millisecond
		sess := Open(clk, []*cpu.Thread{main}, []Event{TaskClock, PageFaults, ContextSwitches}, Config{})
		sess.SampleEvery(simclock.Duration(10+r.Intn(50)) * simclock.Millisecond)
		main.Enqueue(cpu.Compute(total, &rates, nil))
		clk.RunUntil(simclock.Time(total) + simclock.Time(100*simclock.Millisecond))
		final := sess.Stop()
		var sum [3]int64
		for _, smp := range sess.Samples() {
			for i := range sum {
				sum[i] += smp.PerThread[0][i]
			}
		}
		// The final reading includes the residual window after the last
		// sample, so sums may be <= final values; re-read remainder:
		// final - sum must be the residual, hence >= 0 for all events.
		for i := range sum {
			if final.PerThread[0][i] < sum[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
