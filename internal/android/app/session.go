package app

import (
	"fmt"
	"slices"
	"strconv"

	"hangdoctor/internal/android/looper"
	"hangdoctor/internal/android/render"
	"hangdoctor/internal/cpu"
	"hangdoctor/internal/fault"
	"hangdoctor/internal/perf"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
	"hangdoctor/internal/stack"
)

// EventExec records one input event's dispatch on the main thread.
type EventExec struct {
	Name  string
	Index int
	Start simclock.Time
	End   simclock.Time
	Done  bool
	// Exec is the owning action execution.
	Exec *ActionExec
}

// ResponseTime returns the dispatch duration (End-Start); for an unfinished
// event it returns the time elapsed so far relative to now being unknown,
// i.e. zero until Done.
func (e *EventExec) ResponseTime() simclock.Duration {
	if !e.Done {
		return 0
	}
	return e.End.Sub(e.Start)
}

// HeavyOp records that an op manifested its heavy cost during an execution,
// with the planned main-thread duration (CPU + blocking) it was given.
type HeavyOp struct {
	Op  *Op
	Dur simclock.Duration
}

// ActionExec records one execution of an action: timing, per-event response
// times, and the ground-truth set of manifested heavy operations (which the
// evaluation harness uses to label hangs as bug-caused or UI-caused; a real
// deployment has no access to this).
type ActionExec struct {
	Action *Action
	Seq    int
	Start  simclock.Time
	End    simclock.Time
	Events []*EventExec
	Heavy  []HeavyOp

	// The first inlineEvents events and inlineHeavy heavy ops live in the
	// record itself, so recording an execution allocates the record alone;
	// Events and Heavy spill to the heap only past them.
	events   [inlineEvents]EventExec
	eventPtr [inlineEvents]*EventExec
	heavy    [inlineHeavy]HeavyOp
}

// inlineEvents and inlineHeavy size an ActionExec's inline records: a
// corpus execution posts at most two events (an async completion
// included), and over the Table-5 and async apps' user traces records at
// most three heavy ops. The record is then 256 bytes on 64-bit hosts.
const (
	inlineEvents = 2
	inlineHeavy  = 3
)

// addEvent appends the record of a dispatch of the named event.
func (a *ActionExec) addEvent(name string) *EventExec {
	i := len(a.Events)
	var ev *EventExec
	if i < inlineEvents {
		if i == 0 {
			a.Events = a.eventPtr[:0]
		}
		ev = &a.events[i]
	} else {
		ev = new(EventExec)
	}
	*ev = EventExec{Name: name, Index: i, Exec: a}
	a.Events = append(a.Events, ev)
	return ev
}

// addHeavy records a manifested heavy op.
func (a *ActionExec) addHeavy(h HeavyOp) {
	if a.Heavy == nil {
		a.Heavy = a.heavy[:0]
	}
	a.Heavy = append(a.Heavy, h)
}

// ResponseTime returns the action's response time: the maximum input-event
// response time, per the paper's definition (§2.2).
func (a *ActionExec) ResponseTime() simclock.Duration {
	var max simclock.Duration
	for _, e := range a.Events {
		if rt := e.ResponseTime(); rt > max {
			max = rt
		}
	}
	return max
}

// BugCaused returns the manifested bug op with the longest planned duration
// at or above minDur, or nil. This is the evaluation ground truth for
// whether a soft hang of this execution is attributable to a soft hang bug.
func (a *ActionExec) BugCaused(minDur simclock.Duration) *Bug {
	var best *Bug
	var bestDur simclock.Duration
	for _, h := range a.Heavy {
		if h.Op.Bug != nil && h.Dur >= minDur && h.Dur > bestDur {
			best = h.Op.Bug
			bestDur = h.Dur
		}
	}
	return best
}

// Listener observes action lifecycle events; detectors implement it.
type Listener interface {
	ActionStart(*ActionExec)
	EventStart(*ActionExec, *EventExec)
	EventEnd(*ActionExec, *EventExec)
	ActionEnd(*ActionExec)
}

// Session executes an app's actions on a simulated device.
type Session struct {
	App    *App
	Device Device

	Clk    *simclock.Clock
	Sched  *cpu.Scheduler
	Looper *looper.Looper
	Render *render.Thread

	rng      *simrand.Rand
	noise    *perf.NoiseModel
	perfRng  *simrand.Rand
	faults   *fault.Injector
	listener []Listener

	execCount map[string]int
	current   *ActionExec

	// pool is the app's bounded worker pool; nil for apps with no async ops,
	// so the pre-async corpus runs on an unchanged thread population.
	pool *workerPool
	// pendingCompletions counts async completions submitted but not yet
	// dispatched; Perform waits for them (the completion is part of the
	// action), while detached tasks deliberately are not waited on.
	pendingCompletions int

	bg     []*bgThread
	bgStop bool

	// msgs are the looper messages the session posts for input events,
	// each with the program buffer it keeps; the action in flight uses the
	// first nmsg, and the next Perform takes them back, since the looper
	// has dispatched every one by then.
	msgs []*looper.Message
	nmsg int
	// frames is the FIFO of frame batches the action's UI ops post to the
	// render thread, in the order their main-thread programs run; frameHead
	// is the next one, and postFrameFn, bound once, posts it.
	frames      []render.FrameBatch
	frameHead   int
	postFrameFn func()
	// launches are finished async launches, kept for reuse.
	launches []*launch
}

// bgThread is one background interference thread. It is created at the
// session's first action and parked (exited, then restarted) between
// actions, so a session has one scheduler thread per interference slot.
type bgThread struct {
	th  *cpu.Thread
	rng simrand.Rand
	// key is the RNG's derivation key, "bg/<i>/" then the action's start
	// time; prefix is the length of "bg/<i>/".
	key    []byte
	prefix int
}

// NewSession builds the full simulated stack for one app on one device.
// The app must be finalized. seed determines every random choice of the
// session (jitter, manifestation, interference, measurement noise).
func NewSession(a *App, dev Device, seed uint64) (*Session, error) {
	if dev.Cores <= 0 {
		return nil, fmt.Errorf("app: device %q has no cores", dev.Name)
	}
	clk := simclock.New()
	sched := cpu.New(clk, dev.Cores)
	return NewSessionOn(clk, sched, a, dev, simrand.New(seed))
}

// NewSessionOn builds a session on an existing clock and scheduler, so
// several apps can share one simulated kernel (the multi-app device of
// internal/system). The caller owns rng; the session derives a private
// sub-stream from it.
func NewSessionOn(clk *simclock.Clock, sched *cpu.Scheduler, a *App, dev Device, rng *simrand.Rand) (*Session, error) {
	if err := a.Finalize(); err != nil {
		return nil, err
	}
	s := &Session{
		App:       a,
		Device:    dev,
		Clk:       clk,
		Sched:     sched,
		Looper:    looper.New(sched, "main:"+a.Name),
		Render:    render.New(sched),
		rng:       rng.Derive("session/" + a.Name),
		execCount: map[string]int{},
	}
	if dev.NoiseScale > 0 {
		s.noise = perf.DefaultNoise(s.rng.Derive("noise"))
		s.noise.BaseScale = dev.NoiseScale
	}
	s.perfRng = s.rng.Derive("perf")
	s.postFrameFn = s.postFrame
	s.Looper.AddDispatchHook(sessionHook{s})
	if a.HasAsync() {
		s.pool = newWorkerPool(sched, a.Name, a.PoolWidth)
	}
	return s, nil
}

// MainThread returns the app's main thread.
func (s *Session) MainThread() *cpu.Thread { return s.Looper.Thread() }

// RenderThread returns the render thread.
func (s *Session) RenderThread() *cpu.Thread { return s.Render.CPUThread() }

// WorkerThreads returns the app's pool worker threads (nil when the app has
// no async ops). They are scheduled entities like any other: a perf session
// can open counters on them, and the sampler walks them via SampleTagged.
func (s *Session) WorkerThreads() []*cpu.Thread {
	if s.pool == nil {
		return nil
	}
	return s.pool.threads
}

// PerfConfig returns the perf session configuration matching this device
// (register count, measurement-noise model, deterministic RNG). It does not
// carry the fault injector: consumers that can survive measurement faults
// opt in explicitly (see core.Doctor), so auxiliary perf users keep their
// must-succeed semantics.
func (s *Session) PerfConfig() perf.Config {
	regs := s.Device.Registers
	if regs == 0 {
		regs = perf.DefaultRegisters
	}
	return perf.Config{Registers: regs, Noise: s.noise, Rng: s.perfRng}
}

// SetFaults installs a fault injector on the session's measurement plane.
// Nil (the default) means a perfect measurement plane.
func (s *Session) SetFaults(in *fault.Injector) { s.faults = in }

// Faults returns the installed fault injector (nil-safe to use directly).
func (s *Session) Faults() *fault.Injector { return s.faults }

// SampleMainStack is the fault-aware main-thread stack dump: what a trace
// collector actually gets on a loaded device. missed is true when the dump
// was lost to fault injection (as opposed to the thread being idle, which
// returns nil/false/false); truncated is true when outer frames were cut.
func (s *Session) SampleMainStack() (st *stack.Stack, missed, truncated bool) {
	st = s.MainThread().CurrentStack()
	if st == nil {
		return nil, false, false
	}
	if s.faults.StackMissed() {
		return nil, true, false
	}
	if kept, ok := s.faults.TruncateTo(st.Depth()); ok {
		return st.Truncate(kept), false, true
	}
	return st, false, false
}

// SampleTagged is the causal sampler's dump: the main-thread stack plus the
// stack of every busy pool worker, each tagged with the causal origin of the
// work it is executing. Samples are appended onto buf (the caller reuses one
// slice across a hang, so the warm path is allocation-free), and the returns
// report whether the main dump was lost to fault injection, how many dumps
// were truncated, and how many worker dumps were lost. Idle threads
// contribute nothing; worker dumps obey the same truncation faults as main
// dumps and their own loss rate (fault.Rates.WorkerStackMiss).
func (s *Session) SampleTagged(buf []stack.Tagged) (out []stack.Tagged, mainMissed bool, truncated, workersLost int) {
	out = buf
	st, missed, trunc := s.SampleMainStack()
	if trunc {
		truncated++
	}
	if st != nil {
		var o stack.Origin
		if m := s.Looper.Current(); m != nil {
			o = m.Origin
		}
		out = append(out, stack.Tagged{Stack: st, Origin: o})
	}
	if s.pool != nil {
		for i, th := range s.pool.threads {
			task := s.pool.tasks[i]
			if task == nil {
				continue
			}
			wst := th.CurrentStack()
			if wst == nil {
				continue
			}
			if s.faults.WorkerStackMissed() {
				workersLost++
				continue
			}
			if kept, ok := s.faults.TruncateTo(wst.Depth()); ok {
				wst = wst.Truncate(kept)
				truncated++
			}
			out = append(out, stack.Tagged{Stack: wst, Origin: task.origin, Worker: true})
		}
	}
	return out, missed, truncated, workersLost
}

// AddListener attaches a lifecycle observer (typically a detector).
func (s *Session) AddListener(l Listener) { s.listener = append(s.listener, l) }

// Current returns the in-flight action execution, or nil between actions.
func (s *Session) Current() *ActionExec { return s.current }

// sessionHook adapts looper dispatch boundaries to Listener event calls.
type sessionHook struct{ s *Session }

func (h sessionHook) DispatchStart(m *looper.Message, at simclock.Time) {
	ev, ok := m.Meta.(*EventExec)
	if !ok {
		return
	}
	ev.Start = at
	for _, l := range h.s.listener {
		l.EventStart(ev.Exec, ev)
	}
}

func (h sessionHook) DispatchEnd(m *looper.Message, start, end simclock.Time) {
	ev, ok := m.Meta.(*EventExec)
	if !ok {
		return
	}
	ev.End = end
	ev.Done = true
	for _, l := range h.s.listener {
		l.EventEnd(ev.Exec, ev)
	}
}

// Idle advances simulated time by d with the device quiescent (user think
// time between actions). Pending events in that window (detector timers,
// leftover wakeups) do fire.
func (s *Session) Idle(d simclock.Duration) {
	s.Clk.RunUntil(s.Clk.Now().Add(d))
}

// Perform executes one action to completion: posts its input events, runs
// the simulation until the main thread, the render thread, and the message
// queue are all idle (the paper's "none of the two threads execute" action
// boundary), and returns the execution record.
func (s *Session) Perform(act *Action) *ActionExec {
	if s.current != nil {
		panic("app: Perform re-entered while an action is in flight")
	}
	exec := &ActionExec{
		Action: act,
		Seq:    s.execCount[act.UID],
		Start:  s.Clk.Now(),
	}
	s.execCount[act.UID]++
	s.current = exec
	s.startInterference()
	for _, l := range s.listener {
		l.ActionStart(exec)
	}
	s.nmsg = 0
	for _, ie := range act.Events {
		ev := exec.addEvent(ie.Name)
		msg := s.message()
		msg.Name = ie.msgName
		msg.Segments = s.buildSegments(act, ie, exec, msg.Segments[:0])
		msg.Meta = ev
		msg.Origin = act.inputOrigin
		s.Looper.Post(msg)
	}
	guard := 0
	for !s.actionDone() {
		if !s.Clk.Step() {
			panic(fmt.Sprintf("app: simulation stalled during action %s", act.UID))
		}
		guard++
		if guard > 5_000_000 {
			panic(fmt.Sprintf("app: action %s exceeded event budget", act.UID))
		}
	}
	s.stopInterference()
	exec.End = s.Clk.Now()
	s.current = nil
	for _, l := range s.listener {
		l.ActionEnd(exec)
	}
	return exec
}

// actionDone reports whether both threads have drained. Pending async
// completions count as part of the action (their dispatch is the user-visible
// result delivery); detached worker tasks do not — they may outlive the
// action, which is exactly what makes cross-action convoys possible.
func (s *Session) actionDone() bool {
	return s.Looper.Idle() &&
		s.MainThread().State() == cpu.Waiting &&
		s.Render.Idle() &&
		s.RenderThread().State() == cpu.Waiting &&
		s.pendingCompletions == 0
}

// message returns the next of the session's input-event messages, making
// one the first time an action needs it.
func (s *Session) message() *looper.Message {
	if s.nmsg == len(s.msgs) {
		s.msgs = append(s.msgs, new(looper.Message))
	}
	m := s.msgs[s.nmsg]
	s.nmsg++
	return m
}

// buildSegments appends an input event's main-thread program onto segs,
// drawing this execution's manifestation and jitter, and recording heavy
// ops into exec. Stacks and rate vectors were precomputed at Finalize, and
// segs is the program buffer of the message the program goes to, grown to
// the event's worst case on first use.
func (s *Session) buildSegments(act *Action, ie *InputEvent, exec *ActionExec, segs []cpu.Segment) []cpu.Segment {
	rich := s.Device.EnvRichness
	if rich == 0 {
		rich = 1
	}
	if cap(segs) < ie.segCap {
		segs = make([]cpu.Segment, 0, ie.segCap)
	}
	for oi, op := range ie.Ops {
		manifest := op.Manifest
		if manifest < 1 {
			// Environment-dependent ops manifest less often in a poorer
			// environment; always-heavy ops (UI work) are unaffected.
			manifest *= rich
		}
		heavy := s.rng.Bool(manifest)
		cost := op.Heavy
		rates := &op.heavyRates
		if !heavy {
			if op.Light != nil {
				cost = *op.Light
				rates = &op.lightRates
			} else {
				cost = defaultLightCost()
				rates = &defaultLightRates
			}
		}
		f := s.rng.Jitter(1, cost.Jitter)
		if op.Async != nil {
			segs = s.asyncSegments(op, heavy, f, cost, rates, act.callerStack, ie.fullStacks[oi], exec, segs)
			continue
		}
		var mainDur simclock.Duration
		segs, mainDur = s.opSegments(op, cost, rates, f, act.callerStack, ie.fullStacks[oi], segs)
		if heavy {
			exec.addHeavy(HeavyOp{Op: op, Dur: mainDur})
		}
	}
	return segs
}

// asyncSegments appends an async op's main-thread program: the on-main
// marshalling at the op's site (the op's own cost model), a Call that
// launches the spawn — optionally through a postDelayed hop chain — and, for
// awaited ops, a WaitGate that parks the dispatch in FutureTask.get until
// the join. Ground truth is recorded at runtime with actual durations:
// awaited ops record the real stall between submit and join (which includes
// queueing behind other origins' tasks — the convoy and leaky-ordering
// patterns), completion ops record the dispatch they post back. All
// randomness is drawn here, in build order, so executions stay replayable.
func (s *Session) asyncSegments(op *Op, heavy bool, f float64, cost CostModel, rates *cpu.Rates,
	callerStack, fullStack *stack.Stack, exec *ActionExec, segs []cpu.Segment) []cpu.Segment {
	spec := op.Async
	segs, _ = s.opSegments(op, cost, rates, f, callerStack, fullStack, segs)

	l := s.newLaunch(op, exec, heavy)
	taskCost, tRates := spec.Task, &op.taskRates
	if !heavy {
		taskCost, tRates = defaultLightCost(), &defaultLightRates
	}
	l.tasks = slices.Grow(l.tasks[:0], spec.taskCount())[:spec.taskCount()]
	for i := range l.tasks {
		t := &l.tasks[i]
		t.segs, _ = taskSegments(taskCost, tRates, s.rng.Jitter(1, taskCost.Jitter), op.taskStack, t.segs[:0])
		t.op, t.origin, t.launch = op, op.spawnOrigin, l
	}

	if spec.Completion.CPU > 0 {
		compCost, cRates := spec.Completion, &op.completionRates
		if !heavy {
			compCost, cRates = defaultLightCost(), &defaultLightRates
		}
		l.comp, l.compDur = taskSegments(compCost, cRates, s.rng.Jitter(1, compCost.Jitter), fullStack, l.comp[:0])
		l.comp = append(l.comp, cpu.Call(l.completedFn))
		l.hasComp = true
		l.refs++
	}

	segs = append(segs, cpu.Call(l.launchFn))
	if spec.Await {
		l.gate.Reset()
		segs = append(segs, cpu.WaitGate(&l.gate, op.awaitStack))
	}
	return segs
}

// postCompletion delivers an async op's result back to the main thread as
// its own monitored dispatch: a synthetic event appended to the execution and
// posted (postDelayed when the spec says so; the timer runs off-thread, so
// the message competes for the looper only once it fires) carrying the op's
// completion origin, so samplers see the causal chain and detectors see the
// response time like any input event's.
func (s *Session) postCompletion(l *launch) {
	op, exec := l.op, l.exec
	ev := exec.addEvent(op.completionEvent)
	if l.heavy {
		exec.addHeavy(HeavyOp{Op: op, Dur: l.compDur})
	}
	l.msg = looper.Message{Name: op.completionMsg, Segments: l.comp, Meta: ev, Origin: op.completionOrigin}
	if d := op.Async.CompletionDelay; d > 0 {
		s.Clk.After(d, l.postFn)
		return
	}
	l.post()
}

// defaultLightCost is the benign execution of an occasionally-manifesting
// op: a few milliseconds of plain work.
func defaultLightCost() CostModel {
	return CostModel{CPU: 3 * simclock.Millisecond, Jitter: 0.3,
		MinorFaultsPerSec: 500, InstructionsPerSec: 1.0e9}
}

// defaultLightRates is defaultLightCost's rate vector, derived once.
var defaultLightRates = defaultLightCost().Rates()

// frameworkFrames are the constant outermost frames of any main-thread
// dispatch stack.
var frameworkFrames = []stack.Frame{
	{Class: "android.os.Handler", Method: "dispatchMessage", File: "Handler.java", Line: 106},
	{Class: "android.os.Looper", Method: "loop", File: "Looper.java", Line: 193},
}

// opSegments appends the scheduler program for one op at the given cost and
// jitter factor onto segs, returning the extended program and the planned
// main-thread duration. callerStack and fullStack are the action's and
// op's precomputed immutable stacks; rates points at the matching
// precomputed vector, which the segments share.
func (s *Session) opSegments(op *Op, cost CostModel, rates *cpu.Rates, f float64,
	callerStack, fullStack *stack.Stack, segs []cpu.Segment) ([]cpu.Segment, simclock.Duration) {
	cpuTotal := simclock.Duration(float64(cost.CPU) * f)
	pre := simclock.Duration(float64(cpuTotal) * cost.preShare() / 2)
	post := pre
	mid := cpuTotal - pre - post
	if mid < 0 {
		mid = 0
	}
	blockEach := simclock.Duration(float64(cost.BlockEach) * f)
	mainDur := cpuTotal + simclock.Duration(cost.Blocks)*blockEach

	if pre > 0 {
		segs = append(segs, cpu.Compute(pre, rates, callerStack))
	}
	if cost.Blocks > 0 {
		chunk := mid / simclock.Duration(cost.Blocks+1)
		segs = append(segs, cpu.Compute(chunk, rates, fullStack))
		for i := 0; i < cost.Blocks; i++ {
			segs = append(segs,
				cpu.Block(blockEach, fullStack),
				cpu.Compute(chunk, rates, fullStack),
			)
		}
	} else if mid > 0 {
		segs = append(segs, cpu.Compute(mid, rates, fullStack))
	}
	if post > 0 {
		segs = append(segs, cpu.Compute(post, rates, callerStack))
	}
	if cost.Frames > 0 && cost.PerFrame > 0 {
		// Render cost varies per execution independently of the main-thread
		// jitter: frame complexity depends on what actually changed on
		// screen, not on how long the handler ran.
		rf := s.rng.Jitter(f, 0.18)
		s.frames = append(s.frames, render.FrameBatch{
			Frames:   cost.Frames,
			PerFrame: simclock.Duration(float64(cost.PerFrame) * rf),
			Rates:    &renderRatesV,
		})
		segs = append(segs, cpu.Call(s.postFrameFn))
	}
	return segs, mainDur
}

// postFrame runs on the main thread where a UI op's program ends: it posts
// the op's frame batch, the oldest the FIFO holds, to the render thread.
// Batches enter the FIFO as programs are built and leave it as they run,
// both in the order the looper dispatches the programs.
func (s *Session) postFrame() {
	b := s.frames[s.frameHead]
	s.frameHead++
	if s.frameHead == len(s.frames) {
		s.frames, s.frameHead = s.frames[:0], 0
	}
	s.Render.Post(b)
}

// startInterference spins up the device's background threads for the action
// window: system services and app workers whose bursts preempt the app
// threads, producing the involuntary context switches long main-thread
// computations accumulate on a real phone. Each action restarts the same
// threads and re-derives each one's RNG from "bg/<i>/<action start>", so
// every action sees the same interference as if its threads were new.
func (s *Session) startInterference() {
	s.bgStop = false
	for i := 0; i < s.Device.BGThreads; i++ {
		if i == len(s.bg) {
			s.bg = append(s.bg, s.newBGThread(i))
		} else {
			s.bg[i].th.Restart()
		}
		b := s.bg[i]
		b.key = strconv.AppendInt(b.key[:b.prefix], int64(s.Clk.Now()), 10)
		s.rng.DeriveInto(&b.rng, b.key)
		// Kick the loop.
		b.th.Enqueue(cpu.Block(simclock.Duration(b.rng.Jitter(float64(s.Device.BGGap)/2, 0.4)), nil))
	}
}

// newBGThread creates interference thread i with its burst loop: each time
// it drains, it sleeps a jittered gap and then computes a jittered burst,
// until stopInterference ends the action.
func (s *Session) newBGThread(i int) *bgThread {
	name := "bg" + strconv.Itoa(i)
	b := &bgThread{th: s.Sched.NewThread(name), key: []byte("bg/" + strconv.Itoa(i) + "/")}
	b.prefix = len(b.key)
	b.th.SetOnIdle(func() {
		if s.bgStop {
			return
		}
		b.th.Enqueue(
			cpu.Block(simclock.Duration(b.rng.Jitter(float64(s.Device.BGGap), 0.4)), nil),
			cpu.Compute(simclock.Duration(b.rng.Jitter(float64(s.Device.BGBurst), 0.4)), &defaultLightRates, nil),
		)
	})
	return b
}

// stopInterference parks the background threads at action end.
func (s *Session) stopInterference() {
	s.bgStop = true
	for _, b := range s.bg {
		if b.th.State() != cpu.Dead {
			b.th.Exit()
		}
	}
}
