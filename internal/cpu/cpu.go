// Package cpu implements a deterministic discrete-event multicore scheduler
// for simulated threads. It is the substrate that generates the kernel-level
// performance events Hang Doctor's S-Checker consumes: task-clock and
// cpu-clock (CPU time actually received), voluntary context switches (thread
// blocks or parks), involuntary context switches (timeslice preemption under
// contention), CPU migrations (re-dispatch on a different core), and page
// faults (attributed to compute segments through per-second rates).
//
// Threads execute *segment programs*: Compute consumes CPU, Block and
// BlockUntil sleep, WaitGate parks until a Gate opens, and Call runs an
// instantaneous callback that may enqueue further work on any thread.
// Higher layers (the Android looper, the render thread, background
// interference) are all expressed as segment producers, which keeps every
// microsecond of simulated execution attributable and reproducible.
//
// The model intentionally mirrors the mechanisms — not the implementation —
// of the Linux scheduler the paper measured through simpleperf: a global FIFO
// run queue with a fixed timeslice stands in for CFS. The events the paper's
// correlation analysis ranks highest (context switches, task clock, page
// faults, §3.3.1) are produced by the same causes here as on a phone:
// blocking I/O, preemption under load, and memory-hungry operations.
package cpu

import (
	"fmt"

	"hangdoctor/internal/simclock"
	"hangdoctor/internal/stack"
)

// NumHWCounters is the number of micro-architectural (PMU) counter slots a
// thread accumulates. The perf package maps named PMU events onto these
// slots; the scheduler itself is agnostic to their meaning.
const NumHWCounters = 40

// DefaultTimeslice is the preemption quantum. 10ms approximates the
// effective CFS slice on a loaded big.LITTLE phone core.
const DefaultTimeslice = 10 * simclock.Millisecond

// maxInlineSteps bounds the number of zero-time segment transitions (Call
// chains, OnIdle refills) a thread may perform without consuming simulated
// time, so a buggy self-feeding program fails loudly instead of hanging.
const maxInlineSteps = 100000

// State is a thread's scheduling state.
type State int

// Thread states.
const (
	// Waiting: no work queued; parked off the run queue (an idle looper).
	Waiting State = iota
	// Runnable: has work, sitting on the run queue.
	Runnable
	// Running: currently on a core executing a Compute segment.
	Running
	// Blocked: sleeping in a Block/BlockUntil segment.
	Blocked
	// Dead: exited; enqueueing to it panics.
	Dead
)

func (s State) String() string {
	switch s {
	case Waiting:
		return "waiting"
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Rates describes how fast a Compute segment generates countable events, in
// events per second of CPU time consumed.
type Rates struct {
	MinorFaults float64
	MajorFaults float64
	HW          [NumHWCounters]float64
}

// Counters is a snapshot of a thread's accumulated performance events.
// Time counters are in nanoseconds.
type Counters struct {
	TaskClock            int64
	CPUClock             int64
	VoluntaryCtxSwitches int64
	InvoluntaryCtxSwitch int64
	Migrations           int64
	MinorFaults          int64
	MajorFaults          int64
	AlignmentFaults      int64
	EmulationFaults      int64
	HW                   [NumHWCounters]int64
}

// CtxSwitches returns voluntary + involuntary context switches, the quantity
// perf reports as "context-switches".
func (c Counters) CtxSwitches() int64 {
	return c.VoluntaryCtxSwitches + c.InvoluntaryCtxSwitch
}

// PageFaults returns minor + major faults, perf's "page-faults".
func (c Counters) PageFaults() int64 { return c.MinorFaults + c.MajorFaults }

// Sub returns c - o field by field, the delta over a measurement window.
func (c Counters) Sub(o Counters) Counters {
	r := Counters{
		TaskClock:            c.TaskClock - o.TaskClock,
		CPUClock:             c.CPUClock - o.CPUClock,
		VoluntaryCtxSwitches: c.VoluntaryCtxSwitches - o.VoluntaryCtxSwitches,
		InvoluntaryCtxSwitch: c.InvoluntaryCtxSwitch - o.InvoluntaryCtxSwitch,
		Migrations:           c.Migrations - o.Migrations,
		MinorFaults:          c.MinorFaults - o.MinorFaults,
		MajorFaults:          c.MajorFaults - o.MajorFaults,
		AlignmentFaults:      c.AlignmentFaults - o.AlignmentFaults,
		EmulationFaults:      c.EmulationFaults - o.EmulationFaults,
	}
	for i := range c.HW {
		r.HW[i] = c.HW[i] - o.HW[i]
	}
	return r
}

// Add returns c + o field by field.
func (c Counters) Add(o Counters) Counters {
	r := Counters{
		TaskClock:            c.TaskClock + o.TaskClock,
		CPUClock:             c.CPUClock + o.CPUClock,
		VoluntaryCtxSwitches: c.VoluntaryCtxSwitches + o.VoluntaryCtxSwitches,
		InvoluntaryCtxSwitch: c.InvoluntaryCtxSwitch + o.InvoluntaryCtxSwitch,
		Migrations:           c.Migrations + o.Migrations,
		MinorFaults:          c.MinorFaults + o.MinorFaults,
		MajorFaults:          c.MajorFaults + o.MajorFaults,
		AlignmentFaults:      c.AlignmentFaults + o.AlignmentFaults,
		EmulationFaults:      c.EmulationFaults + o.EmulationFaults,
	}
	for i := range c.HW {
		r.HW[i] = c.HW[i] + o.HW[i]
	}
	return r
}

// segKind tags a Segment's variant. The zero kind is invalid, so a zero
// Segment fails loudly instead of running as an empty Compute.
type segKind uint8

const (
	segCompute segKind = iota + 1
	segBlock
	segBlockUntil
	segCall
	segWaitGate
)

// Segment is one step of a thread program, built by Compute, Block,
// BlockUntil, Call or WaitGate. It is a small tagged value, so a program is
// one slice of segments with no per-step allocation.
type Segment struct {
	kind segKind
	// t is the duration of a Compute or Block, or BlockUntil's wake time.
	t     int64
	rates *Rates
	stack *stack.Stack
	fn    func()
	gate  *Gate
}

// Compute consumes d of CPU time, accruing events at *r, with st visible to
// samplers while it runs. r is shared, not copied, so it must not change
// while the segment is queued; nil accrues no fault or HW events.
func Compute(d simclock.Duration, r *Rates, st *stack.Stack) Segment {
	return Segment{kind: segCompute, t: int64(d), rates: r, stack: st}
}

// Block sleeps for d (blocking I/O, lock wait, ...). Entering a Block is a
// voluntary context switch. st is what a sampler sees while blocked —
// exactly how a blocking API shows up in a real ANR trace.
func Block(d simclock.Duration, st *stack.Stack) Segment {
	return Segment{kind: segBlock, t: int64(d), stack: st}
}

// BlockUntil sleeps until the absolute time at (vsync waits, alarms). If at
// is not in the future when reached, it is skipped without a context switch.
func BlockUntil(at simclock.Time, st *stack.Stack) Segment {
	return Segment{kind: segBlockUntil, t: int64(at), stack: st}
}

// Call runs fn instantaneously on the thread. fn may enqueue segments on any
// thread, start/stop samplers, or record timestamps. It must not advance the
// clock.
func Call(fn func()) Segment {
	return Segment{kind: segCall, fn: fn}
}

// WaitGate parks the thread until g opens — the completion of asynchronous
// work whose finish time is unknown when the segment is enqueued, unlike
// Block's fixed duration. Entering the wait is a voluntary context switch;
// st is what a sampler sees while parked (an await frame such as
// FutureTask.get, exactly as in a real ANR trace). A WaitGate reached after
// its gate already opened is skipped without a switch.
func WaitGate(g *Gate, st *stack.Stack) Segment {
	return Segment{kind: segWaitGate, gate: g, stack: st}
}

// Gate is a one-shot completion latch: threads wait on it with a WaitGate
// segment, and whoever finishes the guarded work calls Open exactly once to
// release them. It models join points whose timing emerges from scheduling
// (a worker task the main thread awaits) rather than being scripted.
type Gate struct {
	open    bool
	waiters []*Thread
}

// NewGate returns a closed gate.
func NewGate() *Gate { return &Gate{} }

// Open releases the gate, waking every thread parked in a WaitGate on it.
// Waiters that exited while parked are skipped. Opening twice panics: the
// one-shot contract keeps completion accounting honest.
func (g *Gate) Open() {
	if g.open {
		panic("cpu: gate opened twice")
	}
	g.open = true
	var s *Scheduler
	for _, t := range g.waiters {
		if seg := t.current(); t.state != Blocked || seg == nil || seg.kind != segWaitGate || seg.gate != g {
			continue
		}
		t.blockStack = nil
		t.pc++ // retire the WaitGate
		s = t.sched
		s.makeRunnable(t)
	}
	g.waiters = nil
	if s != nil {
		s.dispatch()
	}
}

// Thread is a simulated kernel thread.
type Thread struct {
	ID   int
	Name string

	sched *Scheduler
	state State

	// prog[pc:] is the pending program; prog[pc] is current when
	// Running/Blocked. Enqueue slides it back to the front of the slice, so
	// one slice serves the thread's whole life.
	prog []Segment
	pc   int

	// Running bookkeeping.
	core         int // core index when Running, else -1
	lastCore     int // last core this thread ran on, -1 if never
	remaining    simclock.Duration
	chargedUntil simclock.Time
	sliceLeft    simclock.Duration
	runEvent     simclock.Handle
	wakeEvent    simclock.Handle
	blockStack   *stack.Stack

	counters   Counters
	minorAccum float64
	majorAccum float64
	hwAccum    [NumHWCounters]float64

	onIdle func() // optional work refill hook; see SetOnIdle

	// onRun and onWake are the thread's clock callbacks, bound once by
	// NewThread so arming a slice or a wakeup allocates nothing.
	onRun, onWake func()
}

// current returns the segment the program is at, or nil when it is empty.
func (t *Thread) current() *Segment {
	if t.pc == len(t.prog) {
		return nil
	}
	return &t.prog[t.pc]
}

// State returns the thread's current scheduling state.
func (t *Thread) State() State { return t.state }

// SetOnIdle registers fn to run when the thread drains its program. If fn
// enqueues new segments the thread keeps running without a context switch —
// this models a looper's tight dispatch loop and a render thread's frame
// pump. fn runs on the thread (zero simulated time).
func (t *Thread) SetOnIdle(fn func()) { t.onIdle = fn }

// CurrentStack returns the stack visible to a sampler right now: the stack
// of the executing Compute segment or of the Block the thread sleeps in.
// It returns nil when the thread has no attributable activity (Waiting,
// Runnable between slices with no stack, or Dead).
func (t *Thread) CurrentStack() *stack.Stack {
	switch t.state {
	case Running, Runnable:
		// Runnable: preempted mid-Compute, the frames are still on the stack.
		if seg := t.current(); seg != nil && seg.kind == segCompute {
			return seg.stack
		}
	case Blocked:
		return t.blockStack
	}
	return nil
}

// Counters returns an up-to-date snapshot, charging any partially executed
// Compute segment through the present moment first.
func (t *Thread) Counters() Counters {
	if t.state == Running {
		t.charge(t.sched.clk.Now())
	}
	return t.counters
}

// Enqueue appends segments to the thread's program, waking it if parked.
func (t *Thread) Enqueue(segs ...Segment) {
	if t.state == Dead {
		panic("cpu: Enqueue on dead thread " + t.Name)
	}
	if len(segs) == 0 {
		return
	}
	if t.pc > 0 {
		// Slide the pending tail to the front so the slice is reused rather
		// than grown, and clear the vacated tail so retired callbacks and
		// stacks are not kept alive.
		n := copy(t.prog, t.prog[t.pc:])
		clear(t.prog[n:])
		t.prog, t.pc = t.prog[:n], 0
	}
	t.prog = append(t.prog, segs...)
	if t.state == Waiting {
		t.sched.makeRunnable(t)
		t.sched.dispatch()
	}
}

// QueueLen reports the number of pending segments (including the one
// currently executing).
func (t *Thread) QueueLen() int { return len(t.prog) - t.pc }

// Exit terminates the thread. Pending segments are dropped. Exiting a
// Running or Blocked thread releases its core / cancels its wakeup.
func (t *Thread) Exit() {
	s := t.sched
	switch t.state {
	case Running:
		t.charge(s.clk.Now())
		s.clk.Cancel(t.runEvent)
		s.traceDescheduled(t, DeschedExited)
		s.releaseCore(t)
	case Blocked:
		s.clk.Cancel(t.wakeEvent)
	case Runnable:
		s.removeFromRunq(t)
	}
	clear(t.prog)
	t.prog, t.pc = t.prog[:0], 0
	t.state = Dead
	t.blockStack = nil
	s.dispatch()
}

// charge accounts CPU time from chargedUntil to now against the running
// Compute segment: task/cpu clock, fault and HW accumulators.
func (t *Thread) charge(now simclock.Time) {
	dt := now.Sub(t.chargedUntil)
	if dt <= 0 {
		return
	}
	t.chargedUntil = now
	t.remaining -= dt
	t.sliceLeft -= dt
	ns := int64(dt)
	t.counters.TaskClock += ns
	t.counters.CPUClock += ns
	if seg := t.current(); seg != nil && seg.kind == segCompute && seg.rates != nil {
		r := seg.rates
		sec := float64(ns) / 1e9
		t.minorAccum += r.MinorFaults * sec
		t.majorAccum += r.MajorFaults * sec
		for i := range r.HW {
			if r.HW[i] != 0 {
				t.hwAccum[i] += r.HW[i] * sec
			}
		}
		t.flushAccums()
	}
	t.sched.busyNs += ns
}

// flushAccums moves whole events from float accumulators into counters.
func (t *Thread) flushAccums() {
	if t.minorAccum >= 1 {
		n := int64(t.minorAccum)
		t.counters.MinorFaults += n
		t.minorAccum -= float64(n)
	}
	if t.majorAccum >= 1 {
		n := int64(t.majorAccum)
		t.counters.MajorFaults += n
		t.majorAccum -= float64(n)
	}
	for i := range t.hwAccum {
		if t.hwAccum[i] >= 1 {
			n := int64(t.hwAccum[i])
			t.counters.HW[i] += n
			t.hwAccum[i] -= float64(n)
		}
	}
}

// DeschedReason explains why a thread left its core, for tracing.
type DeschedReason string

// Descheduling reasons.
const (
	DeschedBlocked   DeschedReason = "blocked"
	DeschedParked    DeschedReason = "parked"
	DeschedPreempted DeschedReason = "preempted"
	DeschedExited    DeschedReason = "exited"
)

// ExecTracer observes scheduling decisions (systrace-style span recording).
// Implementations must not advance the clock or mutate scheduler state.
type ExecTracer interface {
	// ThreadScheduled fires when a thread is placed on a core.
	ThreadScheduled(t *Thread, coreID int, at simclock.Time)
	// ThreadDescheduled fires when a thread leaves its core.
	ThreadDescheduled(t *Thread, at simclock.Time, reason DeschedReason)
}

// Scheduler multiplexes threads over a fixed set of cores.
type Scheduler struct {
	clk       *simclock.Clock
	cores     []*Thread // nil = idle
	runq      []*Thread
	threads   []*Thread
	timeslice simclock.Duration
	nextTID   int
	busyNs    int64
	inDisp    bool
	tracer    ExecTracer
}

// SetTracer installs (or clears, with nil) an execution tracer.
func (s *Scheduler) SetTracer(tr ExecTracer) { s.tracer = tr }

func (s *Scheduler) traceScheduled(t *Thread, core int) {
	if s.tracer != nil {
		s.tracer.ThreadScheduled(t, core, s.clk.Now())
	}
}

func (s *Scheduler) traceDescheduled(t *Thread, reason DeschedReason) {
	if s.tracer != nil {
		s.tracer.ThreadDescheduled(t, s.clk.Now(), reason)
	}
}

// New creates a scheduler over numCores cores sharing clk.
func New(clk *simclock.Clock, numCores int) *Scheduler {
	if numCores <= 0 {
		panic("cpu: scheduler needs at least one core")
	}
	return &Scheduler{
		clk:       clk,
		cores:     make([]*Thread, numCores),
		timeslice: DefaultTimeslice,
	}
}

// SetTimeslice overrides the preemption quantum (for tests and ablations).
func (s *Scheduler) SetTimeslice(d simclock.Duration) {
	if d <= 0 {
		panic("cpu: non-positive timeslice")
	}
	s.timeslice = d
}

// Clock returns the shared simulation clock.
func (s *Scheduler) Clock() *simclock.Clock { return s.clk }

// BusyNs returns total CPU nanoseconds consumed by all threads so far; the
// denominator for overhead percentages.
func (s *Scheduler) BusyNs() int64 {
	for _, t := range s.threads {
		if t.state == Running {
			t.charge(s.clk.Now())
		}
	}
	return s.busyNs
}

// Threads returns all live and dead threads ever created (stable order).
func (s *Scheduler) Threads() []*Thread { return s.threads }

// NewThread creates a parked (Waiting) thread.
func (s *Scheduler) NewThread(name string) *Thread {
	t := &Thread{ID: s.nextTID, Name: name, sched: s}
	t.onRun = func() { s.onRunEvent(t) }
	t.onWake = func() { s.onWake(t) }
	t.reset()
	s.nextTID++
	s.threads = append(s.threads, t)
	return t
}

// Restart revives an exited thread as a parked thread that equals a fresh
// NewThread of the same name, except that it keeps its ID and its SetOnIdle
// hook: counters, accumulators, program and core history start over. A
// component that runs the same thread population episode after episode
// reuses its threads this way instead of creating new ones. Restarting a
// thread that has not exited panics.
func (t *Thread) Restart() {
	if t.state != Dead {
		panic("cpu: Restart of live thread " + t.Name)
	}
	t.reset()
}

// reset puts t in NewThread's state, keeping its identity, its bound clock
// callbacks, its SetOnIdle hook and its program slice.
func (t *Thread) reset() {
	*t = Thread{
		ID:       t.ID,
		Name:     t.Name,
		sched:    t.sched,
		state:    Waiting,
		core:     -1,
		lastCore: -1,
		prog:     t.prog[:0],
		onIdle:   t.onIdle,
		onRun:    t.onRun,
		onWake:   t.onWake,
	}
}

func (s *Scheduler) makeRunnable(t *Thread) {
	t.state = Runnable
	s.runq = append(s.runq, t)
}

func (s *Scheduler) removeFromRunq(t *Thread) {
	for i, q := range s.runq {
		if q == t {
			s.runq = append(s.runq[:i], s.runq[i+1:]...)
			return
		}
	}
}

func (s *Scheduler) releaseCore(t *Thread) {
	if t.core >= 0 {
		s.cores[t.core] = nil
		t.lastCore = t.core
		t.core = -1
	}
}

// dispatch places runnable threads on idle cores until one side is
// exhausted. It is re-entrancy-safe: Call segments executed while
// dispatching may enqueue more work, which is absorbed by the outer loop.
func (s *Scheduler) dispatch() {
	if s.inDisp {
		return
	}
	s.inDisp = true
	defer func() { s.inDisp = false }()
	for {
		core := -1
		for i, occ := range s.cores {
			if occ == nil {
				core = i
				break
			}
		}
		if core < 0 || len(s.runq) == 0 {
			return
		}
		// Wake affinity: prefer a waiter that last ran on this core (or has
		// never run), falling back to the queue head. This mirrors CFS's
		// cache-affine placement and keeps migration counts low except under
		// real cross-core pressure.
		pick := 0
		for i, q := range s.runq {
			if q.lastCore == core || q.lastCore == -1 {
				pick = i
				break
			}
		}
		t := s.runq[pick]
		s.runq = append(s.runq[:pick], s.runq[pick+1:]...)
		t.core = core
		s.cores[core] = t
		if t.lastCore >= 0 && t.lastCore != core {
			t.counters.Migrations++
		}
		t.state = Running
		s.traceScheduled(t, core)
		s.runThread(t)
	}
}

// runThread advances t's program while it holds a core, stopping when the
// thread settles into a Compute segment, blocks, or parks.
func (s *Scheduler) runThread(t *Thread) {
	now := s.clk.Now()
	t.sliceLeft = s.timeslice
	for step := 0; ; step++ {
		if step > maxInlineSteps {
			panic("cpu: thread " + t.Name + " exceeded inline step budget (runaway Call/OnIdle loop?)")
		}
		if t.state == Dead {
			return // a Call exited the thread
		}
		seg := t.current()
		if seg == nil {
			if t.onIdle != nil {
				t.onIdle()
				if t.current() != nil {
					continue // refilled; keep running without a switch
				}
			}
			// Park: going off-CPU to wait for work is a voluntary switch.
			t.counters.VoluntaryCtxSwitches++
			t.state = Waiting
			s.traceDescheduled(t, DeschedParked)
			s.releaseCore(t)
			s.dispatch()
			return
		}
		switch seg.kind {
		case segCall:
			fn := seg.fn
			t.pc++
			fn()
		case segBlock:
			if seg.t <= 0 {
				t.pc++
				continue
			}
			s.blockThread(t, now.Add(simclock.Duration(seg.t)), seg.stack)
			return
		case segBlockUntil:
			if at := simclock.Time(seg.t); at > now {
				s.blockThread(t, at, seg.stack)
				return
			}
			t.pc++
		case segWaitGate:
			if seg.gate.open {
				t.pc++
				continue
			}
			// Park like blockThread, but with no wake event: Open pops the
			// segment and re-runs the thread whenever the guarded work lands.
			seg.gate.waiters = append(seg.gate.waiters, t)
			t.counters.VoluntaryCtxSwitches++
			t.state = Blocked
			t.blockStack = seg.stack
			s.traceDescheduled(t, DeschedBlocked)
			s.releaseCore(t)
			s.dispatch()
			return
		case segCompute:
			if seg.t <= 0 {
				t.pc++
				continue
			}
			if t.remaining <= 0 {
				t.remaining = simclock.Duration(seg.t) // fresh segment
			}
			t.chargedUntil = now
			s.armRunEvent(t)
			return
		default:
			panic(fmt.Sprintf("cpu: thread %s reached a zero Segment (build segments with the constructors)", t.Name))
		}
	}
}

// blockThread transitions a running thread into a sleep until wake.
func (s *Scheduler) blockThread(t *Thread, wake simclock.Time, st *stack.Stack) {
	// The Block stays the current segment while asleep so QueueLen
	// reflects it; onWake retires it.
	t.counters.VoluntaryCtxSwitches++
	t.state = Blocked
	t.blockStack = st
	s.traceDescheduled(t, DeschedBlocked)
	s.releaseCore(t)
	t.wakeEvent = s.clk.At(wake, t.onWake)
	s.dispatch()
}

// onWake ends t's Block or BlockUntil sleep.
func (s *Scheduler) onWake(t *Thread) {
	t.blockStack = nil
	if t.state != Blocked {
		return
	}
	t.pc++ // retire the Block
	s.makeRunnable(t)
	s.dispatch()
}

// armRunEvent schedules the next scheduling decision for a running thread:
// either its Compute segment completes or its timeslice expires, whichever
// comes first.
func (s *Scheduler) armRunEvent(t *Thread) {
	run := t.remaining
	if t.sliceLeft < run {
		run = t.sliceLeft
	}
	if run <= 0 {
		run = 1 // defensive: always make progress
	}
	t.runEvent = s.clk.After(run, t.onRun)
}

// onRunEvent handles Compute completion or slice expiry for t.
func (s *Scheduler) onRunEvent(t *Thread) {
	now := s.clk.Now()
	t.charge(now)
	if t.remaining <= 0 {
		// Segment retired; continue the program on-core.
		t.pc++
		t.remaining = 0
		s.runThread(t)
		return
	}
	// Timeslice expired mid-segment.
	if len(s.runq) > 0 {
		t.counters.InvoluntaryCtxSwitch++
		t.state = Runnable
		s.traceDescheduled(t, DeschedPreempted)
		s.releaseCore(t)
		s.runq = append(s.runq, t)
		s.dispatch()
		return
	}
	// Nobody waiting: start a new slice and keep going.
	t.sliceLeft = s.timeslice
	s.armRunEvent(t)
}
