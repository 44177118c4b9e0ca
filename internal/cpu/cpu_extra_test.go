package cpu

import (
	"reflect"
	"testing"

	"hangdoctor/internal/simclock"
	"hangdoctor/internal/stack"
)

func TestStateString(t *testing.T) {
	cases := map[State]string{
		Waiting: "waiting", Runnable: "runnable", Running: "running",
		Blocked: "blocked", Dead: "dead", State(99): "state(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestSetTimeslice(t *testing.T) {
	clk, s := newSched(1)
	s.SetTimeslice(2 * simclock.Millisecond)
	a := s.NewThread("a")
	b := s.NewThread("b")
	a.Enqueue(Compute(20*simclock.Millisecond, nil, nil))
	b.Enqueue(Compute(20*simclock.Millisecond, nil, nil))
	drain(t, clk)
	// With a 2ms slice, contention forces many more preemptions than the
	// default 10ms would.
	if got := a.Counters().InvoluntaryCtxSwitch; got < 8 {
		t.Fatalf("short slice produced only %d preemptions", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive timeslice accepted")
		}
	}()
	s.SetTimeslice(0)
}

func TestExitBlockedThreadCancelsWake(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("io")
	th.Enqueue(Block(50*simclock.Millisecond, nil))
	clk.At(10*1e6, func() { th.Exit() })
	drain(t, clk)
	if th.State() != Dead {
		t.Fatalf("state = %v", th.State())
	}
	// The wake event must not resurrect the thread.
	if clk.Now() > simclock.Time(15*simclock.Millisecond) {
		t.Fatalf("clock ran to %v; cancelled wake event leaked", clk.Now())
	}
}

func TestExitRunnableThread(t *testing.T) {
	clk, s := newSched(1)
	a := s.NewThread("a")
	b := s.NewThread("b")
	a.Enqueue(Compute(30*simclock.Millisecond, nil, nil))
	b.Enqueue(Compute(30*simclock.Millisecond, nil, nil))
	// b starts Runnable (a holds the core); kill it before it ever runs.
	if b.State() != Runnable {
		t.Fatalf("b state = %v", b.State())
	}
	b.Exit()
	drain(t, clk)
	if got := b.Counters().TaskClock; got != 0 {
		t.Fatalf("dead-before-running thread accrued %d ns", got)
	}
	if clk.Now() != simclock.Time(30*simclock.Millisecond) {
		t.Fatalf("end = %v", clk.Now())
	}
}

func TestEnqueueNothingIsNoop(t *testing.T) {
	_, s := newSched(1)
	th := s.NewThread("x")
	th.Enqueue()
	if th.State() != Waiting {
		t.Fatalf("state = %v", th.State())
	}
}

func TestQueueLen(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("x")
	th.Enqueue(Compute(10*simclock.Millisecond, nil, nil), Compute(10*simclock.Millisecond, nil, nil))
	if got := th.QueueLen(); got != 2 {
		t.Fatalf("QueueLen = %d", got)
	}
	drain(t, clk)
	if got := th.QueueLen(); got != 0 {
		t.Fatalf("QueueLen after drain = %d", got)
	}
}

func TestBlockUntilStackVisible(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("r")
	st := stack.New(stack.Frame{Class: "a.Vsync", Method: "wait"})
	th.Enqueue(BlockUntil(simclock.Time(20*simclock.Millisecond), st))
	clk.At(10*1e6, func() {
		if got := th.CurrentStack(); got != st {
			t.Errorf("stack during BlockUntil = %v", got)
		}
	})
	drain(t, clk)
}

func TestCallExitingOwnThread(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("suicidal")
	ran := false
	th.Enqueue(
		Call(func() { th.Exit() }),
		Compute(simclock.Millisecond, nil, nil),
		Call(func() { ran = true }),
	)
	drain(t, clk)
	if th.State() != Dead {
		t.Fatalf("state = %v", th.State())
	}
	if ran {
		t.Fatal("segments after self-exit still ran")
	}
}

func TestOnIdleRunawayGuard(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("runaway")
	// An OnIdle that refills with only zero-duration work must trip the
	// inline-step budget instead of hanging the simulation.
	th.SetOnIdle(func() {
		th.Enqueue(Call(func() {}))
	})
	defer func() {
		if recover() == nil {
			t.Fatal("runaway OnIdle loop not caught")
		}
	}()
	th.Enqueue(Call(func() {}))
	drain(t, clk)
}

func TestTracerNilSafe(t *testing.T) {
	clk, s := newSched(1)
	s.SetTracer(nil)
	th := s.NewThread("x")
	th.Enqueue(Compute(simclock.Millisecond, nil, nil), Block(simclock.Millisecond, nil))
	drain(t, clk)
}

type countingTracer struct{ sched, desched int }

func (c *countingTracer) ThreadScheduled(t *Thread, core int, at simclock.Time) { c.sched++ }
func (c *countingTracer) ThreadDescheduled(t *Thread, at simclock.Time, r DeschedReason) {
	c.desched++
}

func TestTracerBalancedEvents(t *testing.T) {
	clk, s := newSched(2)
	tr := &countingTracer{}
	s.SetTracer(tr)
	for i := 0; i < 3; i++ {
		th := s.NewThread("t")
		th.Enqueue(
			Compute(8*simclock.Millisecond, nil, nil),
			Block(4*simclock.Millisecond, nil),
			Compute(8*simclock.Millisecond, nil, nil),
		)
	}
	drain(t, clk)
	if tr.sched == 0 || tr.sched != tr.desched {
		t.Fatalf("unbalanced tracer events: sched=%d desched=%d", tr.sched, tr.desched)
	}
}

func TestBusyNsMidRun(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("x")
	th.Enqueue(Compute(40*simclock.Millisecond, nil, nil))
	clk.At(25*1e6, func() {
		if got := s.BusyNs(); got != int64(25*simclock.Millisecond) {
			t.Errorf("BusyNs mid-run = %d", got)
		}
	})
	drain(t, clk)
	if got := s.BusyNs(); got != int64(40*simclock.Millisecond) {
		t.Fatalf("BusyNs = %d", got)
	}
}

func TestWakeAffinityReducesMigrations(t *testing.T) {
	// A thread that blocks repeatedly on an otherwise idle 2-core machine
	// should keep returning to the same core.
	clk, s := newSched(2)
	th := s.NewThread("io")
	var segs []Segment
	for i := 0; i < 10; i++ {
		segs = append(segs, Compute(simclock.Millisecond, nil, nil), Block(simclock.Millisecond, nil))
	}
	th.Enqueue(segs...)
	drain(t, clk)
	if got := th.Counters().Migrations; got != 0 {
		t.Fatalf("uncontended wake migrated %d times; affinity broken", got)
	}
}

func TestZeroCoreSchedulerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(simclock.New(), 0)
}

// TestWarmEnqueueZeroAlloc pins the tagged-segment program: once a thread's
// program slice has grown, enqueueing a Compute, Block and Call program and
// running it until the thread parks allocates nothing.
func TestWarmEnqueueZeroAlloc(t *testing.T) {
	clk, s := newSched(1)
	th := s.NewThread("w")
	rates := &Rates{MinorFaults: 1000}
	calls := 0
	fn := func() { calls++ }
	run := func() {
		th.Enqueue(Compute(5*simclock.Millisecond, rates, nil), Block(2*simclock.Millisecond, nil), Call(fn))
		clk.RunUntilIdle(100)
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("warm Enqueue and run allocate %.1f objects, want 0", n)
	}
	// One run above, AllocsPerRun's warm-up and its 100 measured runs.
	if th.State() != Waiting || calls != 102 {
		t.Fatalf("state %v after %d calls, want waiting after 102", th.State(), calls)
	}
}

// TestRestartEqualsNewThread exits a thread mid-Compute and restarts it: it
// must equal a fresh thread except for its ID — zero counters and
// accumulators, an empty program, no core history (so wake affinity treats
// it as never run) — and keep its SetOnIdle hook.
func TestRestartEqualsNewThread(t *testing.T) {
	clk, s := newSched(2)
	th := s.NewThread("bg")
	idle := 0
	th.SetOnIdle(func() { idle++ })
	th.Enqueue(
		Block(simclock.Millisecond, nil),
		Compute(5*simclock.Millisecond, &Rates{MinorFaults: 1500}, nil),
	)
	clk.At(simclock.Time(3*simclock.Millisecond), th.Exit)
	drain(t, clk)
	if th.State() != Dead || th.Counters().TaskClock == 0 {
		t.Fatalf("setup: state %v, task clock %d; want dead after running", th.State(), th.Counters().TaskClock)
	}
	th.Restart()
	fresh := s.NewThread("bg")
	got, want := *th, *fresh
	if len(got.prog) != 0 || got.pc != 0 {
		t.Fatalf("restarted program holds %d segments at pc %d, want empty", len(got.prog), got.pc)
	}
	if got.core != -1 || got.lastCore != -1 {
		t.Fatalf("restarted thread has core %d, last core %d; want -1, -1 (never ran)", got.core, got.lastCore)
	}
	for _, c := range []*Thread{&got, &want} {
		c.ID, c.prog, c.onIdle, c.onRun, c.onWake = 0, nil, nil, nil, nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted thread differs from a new one:\n got %+v\nwant %+v", got, want)
	}
	before := idle
	th.Enqueue(Compute(simclock.Millisecond, nil, nil))
	drain(t, clk)
	if idle != before+1 {
		t.Fatalf("restarted thread ran its OnIdle hook %d times, want 1", idle-before)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Restart of a live thread did not panic")
		}
	}()
	th.Restart()
}
