package cpu

import (
	"testing"
	"testing/quick"

	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
	"hangdoctor/internal/stack"
)

func newSched(cores int) (*simclock.Clock, *Scheduler) {
	clk := simclock.New()
	return clk, New(clk, cores)
}

func drain(t *testing.T, clk *simclock.Clock) {
	t.Helper()
	if _, ok := clk.RunUntilIdle(1_000_000); !ok {
		t.Fatal("simulation did not drain")
	}
}

func TestSingleComputeAccounting(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("main")
	th.Enqueue(Compute(50*simclock.Millisecond, &Rates{MinorFaults: 1000}, nil))
	drain(t, clk)
	c := th.Counters()
	if c.TaskClock != int64(50*simclock.Millisecond) {
		t.Fatalf("TaskClock = %d, want 50ms", c.TaskClock)
	}
	if c.CPUClock != c.TaskClock {
		t.Fatalf("CPUClock = %d != TaskClock %d", c.CPUClock, c.TaskClock)
	}
	// 1000 faults/s * 0.05s = 50 faults.
	if c.MinorFaults != 50 {
		t.Fatalf("MinorFaults = %d, want 50", c.MinorFaults)
	}
	// Finishing all work parks the thread: exactly one voluntary switch.
	if c.VoluntaryCtxSwitches != 1 {
		t.Fatalf("VoluntaryCtxSwitches = %d, want 1", c.VoluntaryCtxSwitches)
	}
	if c.InvoluntaryCtxSwitch != 0 {
		t.Fatalf("InvoluntaryCtxSwitch = %d, want 0", c.InvoluntaryCtxSwitch)
	}
	if th.State() != Waiting {
		t.Fatalf("state = %v, want waiting", th.State())
	}
}

func TestBlockCountsVoluntarySwitch(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("io")
	th.Enqueue(
		Compute(5*simclock.Millisecond, nil, nil),
		Block(20*simclock.Millisecond, nil),
		Compute(5*simclock.Millisecond, nil, nil),
	)
	drain(t, clk)
	c := th.Counters()
	// One switch entering the Block, one parking at the end.
	if c.VoluntaryCtxSwitches != 2 {
		t.Fatalf("VoluntaryCtxSwitches = %d, want 2", c.VoluntaryCtxSwitches)
	}
	if c.TaskClock != int64(10*simclock.Millisecond) {
		t.Fatalf("TaskClock = %d, want 10ms (block time must not count)", c.TaskClock)
	}
	if clk.Now() != 30*1e6 {
		t.Fatalf("end time = %d, want 30ms", clk.Now())
	}
}

func TestPreemptionUnderContention(t *testing.T) {
	clk, s := newSched(1)
	a := s.NewThread("a")
	b := s.NewThread("b")
	a.Enqueue(Compute(50*simclock.Millisecond, nil, nil))
	b.Enqueue(Compute(50*simclock.Millisecond, nil, nil))
	drain(t, clk)
	ca, cb := a.Counters(), b.Counters()
	if ca.TaskClock != int64(50*simclock.Millisecond) || cb.TaskClock != int64(50*simclock.Millisecond) {
		t.Fatalf("task clocks = %d, %d; want 50ms each", ca.TaskClock, cb.TaskClock)
	}
	// On one core with a 10ms slice, each thread is preempted repeatedly.
	if ca.InvoluntaryCtxSwitch < 3 || cb.InvoluntaryCtxSwitch < 3 {
		t.Fatalf("involuntary switches = %d, %d; want several each", ca.InvoluntaryCtxSwitch, cb.InvoluntaryCtxSwitch)
	}
	// Total elapsed: 100ms of compute serialized on one core.
	if clk.Now() != simclock.Time(100*simclock.Millisecond) {
		t.Fatalf("end = %d, want 100ms", clk.Now())
	}
}

func TestNoPreemptionWhenAlone(t *testing.T) {
	clk, s := newSched(2)
	a := s.NewThread("solo")
	a.Enqueue(Compute(100*simclock.Millisecond, nil, nil))
	drain(t, clk)
	if got := a.Counters().InvoluntaryCtxSwitch; got != 0 {
		t.Fatalf("uncontended thread has %d involuntary switches, want 0", got)
	}
}

func TestTwoCoresRunInParallel(t *testing.T) {
	clk, s := newSched(2)
	a := s.NewThread("a")
	b := s.NewThread("b")
	a.Enqueue(Compute(40*simclock.Millisecond, nil, nil))
	b.Enqueue(Compute(40*simclock.Millisecond, nil, nil))
	drain(t, clk)
	if clk.Now() != simclock.Time(40*simclock.Millisecond) {
		t.Fatalf("end = %v, want 40ms (parallel execution)", clk.Now())
	}
}

func TestMigrationCounting(t *testing.T) {
	clk, s := newSched(2)
	// Three contending threads on two cores force re-dispatches; at least
	// one thread must eventually land on a different core than before.
	ths := make([]*Thread, 3)
	for i := range ths {
		ths[i] = s.NewThread("t")
		ths[i].Enqueue(Compute(60*simclock.Millisecond, nil, nil))
	}
	drain(t, clk)
	var mig int64
	for _, th := range ths {
		mig += th.Counters().Migrations
	}
	if mig == 0 {
		t.Fatal("no migrations recorded under cross-core contention")
	}
}

func TestCallSegmentsRunInline(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("main")
	var at []simclock.Time
	th.Enqueue(
		Call(func() { at = append(at, clk.Now()) }),
		Compute(7*simclock.Millisecond, nil, nil),
		Call(func() { at = append(at, clk.Now()) }),
	)
	drain(t, clk)
	if len(at) != 2 {
		t.Fatalf("calls fired %d times, want 2", len(at))
	}
	if at[0] != 0 || at[1] != simclock.Time(7*simclock.Millisecond) {
		t.Fatalf("call times = %v, want [0 7ms]", at)
	}
}

func TestBlockUntilSkippedWhenPast(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("r")
	th.Enqueue(
		Compute(10*simclock.Millisecond, nil, nil),
		BlockUntil(5*1e6, nil), // already past by then
		Compute(10*simclock.Millisecond, nil, nil),
	)
	drain(t, clk)
	c := th.Counters()
	// Only the final park switch: the stale BlockUntil costs nothing.
	if c.VoluntaryCtxSwitches != 1 {
		t.Fatalf("VoluntaryCtxSwitches = %d, want 1", c.VoluntaryCtxSwitches)
	}
	if clk.Now() != simclock.Time(20*simclock.Millisecond) {
		t.Fatalf("end = %v, want 20ms", clk.Now())
	}
}

func TestBlockUntilFuture(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("r")
	th.Enqueue(BlockUntil(simclock.Time(16*simclock.Millisecond), nil), Compute(simclock.Millisecond, nil, nil))
	drain(t, clk)
	if clk.Now() != simclock.Time(17*simclock.Millisecond) {
		t.Fatalf("end = %v, want 17ms", clk.Now())
	}
}

func TestOnIdleRefillKeepsRunningWithoutSwitch(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("looper")
	n := 0
	th.SetOnIdle(func() {
		if n < 5 {
			n++
			th.Enqueue(Compute(simclock.Millisecond, nil, nil))
		}
	})
	th.Enqueue(Compute(simclock.Millisecond, nil, nil))
	drain(t, clk)
	c := th.Counters()
	if c.TaskClock != int64(6*simclock.Millisecond) {
		t.Fatalf("TaskClock = %d, want 6ms", c.TaskClock)
	}
	// All six segments back to back, then one park.
	if c.VoluntaryCtxSwitches != 1 {
		t.Fatalf("VoluntaryCtxSwitches = %d, want 1 (refills must not switch)", c.VoluntaryCtxSwitches)
	}
}

func TestEnqueueWakesParkedThread(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("main")
	th.Enqueue(Compute(simclock.Millisecond, nil, nil))
	drain(t, clk)
	if th.State() != Waiting {
		t.Fatal("thread should be parked")
	}
	th.Enqueue(Compute(2*simclock.Millisecond, nil, nil))
	if th.State() != Running {
		t.Fatalf("state after wake = %v, want running", th.State())
	}
	drain(t, clk)
	if got := th.Counters().TaskClock; got != int64(3*simclock.Millisecond) {
		t.Fatalf("TaskClock = %d, want 3ms", got)
	}
}

func TestCurrentStackVisibility(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("main")
	computeStack := stack.New(stack.Frame{Class: "a.B", Method: "busy", File: "B.java", Line: 10})
	blockStack := stack.New(stack.Frame{Class: "a.IO", Method: "read", File: "IO.java", Line: 20})
	th.Enqueue(
		Compute(10*simclock.Millisecond, nil, computeStack),
		Block(10*simclock.Millisecond, blockStack),
	)
	clk.At(5*1e6, func() {
		if got := th.CurrentStack(); got != computeStack {
			t.Errorf("at 5ms stack = %v, want compute stack", got)
		}
	})
	clk.At(15*1e6, func() {
		if got := th.CurrentStack(); got != blockStack {
			t.Errorf("at 15ms stack = %v, want block stack", got)
		}
	})
	drain(t, clk)
	if th.CurrentStack() != nil {
		t.Error("parked thread should expose no stack")
	}
}

func TestCountersMidSegment(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("main")
	th.Enqueue(Compute(100*simclock.Millisecond, &Rates{MinorFaults: 10000}, nil))
	clk.At(30*1e6, func() {
		c := th.Counters()
		if c.TaskClock != int64(30*simclock.Millisecond) {
			t.Errorf("mid-segment TaskClock = %d, want 30ms", c.TaskClock)
		}
		if c.MinorFaults != 300 {
			t.Errorf("mid-segment MinorFaults = %d, want 300", c.MinorFaults)
		}
	})
	drain(t, clk)
	if got := th.Counters().TaskClock; got != int64(100*simclock.Millisecond) {
		t.Fatalf("final TaskClock = %d, want 100ms (mid-reads must not double-charge)", got)
	}
}

func TestExitRunningThread(t *testing.T) {
	clk, s := newSched(1)
	a := s.NewThread("a")
	b := s.NewThread("b")
	a.Enqueue(Compute(100*simclock.Millisecond, nil, nil))
	b.Enqueue(Compute(10*simclock.Millisecond, nil, nil))
	clk.At(20*1e6, func() { a.Exit() })
	drain(t, clk)
	if a.State() != Dead {
		t.Fatalf("a state = %v, want dead", a.State())
	}
	// b must have gotten the core and completed.
	if got := b.Counters().TaskClock; got != int64(10*simclock.Millisecond) {
		t.Fatalf("b TaskClock = %d, want 10ms", got)
	}
	// a accrued only what it ran before exit (nonzero, at most 20ms).
	got := a.Counters().TaskClock
	if got <= 0 || got > int64(20*simclock.Millisecond) {
		t.Fatalf("a TaskClock = %d, want in (0, 20ms]", got)
	}
}

func TestEnqueueOnDeadThreadPanics(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("x")
	th.Exit()
	_ = clk
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic enqueueing to dead thread")
		}
	}()
	th.Enqueue(Compute(1, nil, nil))
}

func TestCountersSubAdd(t *testing.T) {
	a := Counters{TaskClock: 100, MinorFaults: 5, VoluntaryCtxSwitches: 2}
	a.HW[3] = 42
	b := Counters{TaskClock: 40, MinorFaults: 2, VoluntaryCtxSwitches: 1}
	b.HW[3] = 12
	d := a.Sub(b)
	if d.TaskClock != 60 || d.MinorFaults != 3 || d.VoluntaryCtxSwitches != 1 || d.HW[3] != 30 {
		t.Fatalf("Sub wrong: %+v", d)
	}
	back := d.Add(b)
	if back != a {
		t.Fatalf("Add(Sub) != identity: %+v vs %+v", back, a)
	}
}

func TestBusyNs(t *testing.T) {
	clk, s := newSched(2)
	a := s.NewThread("a")
	b := s.NewThread("b")
	a.Enqueue(Compute(30*simclock.Millisecond, nil, nil))
	b.Enqueue(Compute(20*simclock.Millisecond, nil, nil))
	drain(t, clk)
	if got := s.BusyNs(); got != int64(50*simclock.Millisecond) {
		t.Fatalf("BusyNs = %d, want 50ms", got)
	}
}

func TestZeroDurationSegmentsSkipped(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("z")
	th.Enqueue(Compute(0, nil, nil), Block(0, nil), Compute(simclock.Millisecond, nil, nil))
	drain(t, clk)
	c := th.Counters()
	if c.TaskClock != int64(simclock.Millisecond) {
		t.Fatalf("TaskClock = %d, want 1ms", c.TaskClock)
	}
	if c.VoluntaryCtxSwitches != 1 {
		t.Fatalf("zero-duration Block must not context switch; got %d", c.VoluntaryCtxSwitches)
	}
}

// TestConservationProperty: for random programs, total task clock equals the
// sum of compute durations, and the simulation always drains. This is the
// central scheduler invariant — CPU time is neither created nor lost.
func TestConservationProperty(t *testing.T) {
	rng := simrand.New(1234)
	f := func(seed uint32) bool {
		r := rng.Derive(string(rune(seed)))
		clk := simclock.New()
		s := New(clk, 1+r.Intn(4))
		nThreads := 1 + r.Intn(5)
		want := make([]int64, nThreads)
		ths := make([]*Thread, nThreads)
		for i := 0; i < nThreads; i++ {
			ths[i] = s.NewThread("t")
			nSegs := 1 + r.Intn(6)
			var segs []Segment
			for j := 0; j < nSegs; j++ {
				d := simclock.Duration(1+r.Int63n(30)) * simclock.Millisecond
				if r.Bool(0.3) {
					segs = append(segs, Block(d, nil))
				} else {
					segs = append(segs, Compute(d, nil, nil))
					want[i] += int64(d)
				}
			}
			ths[i].Enqueue(segs...)
		}
		if _, ok := clk.RunUntilIdle(1_000_000); !ok {
			return false
		}
		for i, th := range ths {
			if th.Counters().TaskClock != want[i] {
				return false
			}
			if th.State() != Waiting {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCtxSwitchLowerBound: every Block and the final park each cost exactly
// one voluntary switch, regardless of contention.
func TestCtxSwitchLowerBound(t *testing.T) {
	rng := simrand.New(77)
	f := func(seed uint32) bool {
		r := rng.Derive(string(rune(seed)))
		clk := simclock.New()
		s := New(clk, 2)
		th := s.NewThread("t")
		blocks := 0
		var segs []Segment
		for j := 0; j < 1+r.Intn(8); j++ {
			d := simclock.Duration(1+r.Int63n(10)) * simclock.Millisecond
			if r.Bool(0.5) {
				segs = append(segs, Block(d, nil))
				blocks++
			} else {
				segs = append(segs, Compute(d, nil, nil))
			}
		}
		th.Enqueue(segs...)
		clk.RunUntilIdle(1_000_000)
		return th.Counters().VoluntaryCtxSwitches == int64(blocks)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRunnablePreemptedStackStillVisible(t *testing.T) {
	clk, s := newSched(1)
	a := s.NewThread("a")
	b := s.NewThread("b")
	st := stack.New(stack.Frame{Class: "x.Y", Method: "loop", File: "Y.java", Line: 1})
	a.Enqueue(Compute(50*simclock.Millisecond, nil, st))
	b.Enqueue(Compute(50*simclock.Millisecond, nil, nil))
	// After the first slice (10ms), one of them is preempted (Runnable); its
	// stack must still be observable, as a real /proc stack dump would show.
	clk.At(15*1e6, func() {
		if a.State() == Runnable {
			if a.CurrentStack() != st {
				t.Error("preempted thread lost its stack")
			}
		}
	})
	drain(t, clk)
}
