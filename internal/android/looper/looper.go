// Package looper reproduces the Android main-thread message loop that Hang
// Doctor instruments: a serial message queue drained by one thread, with the
// Looper.setMessageLogging hook that brackets every dispatch. The paper's
// response-time monitor (§3.5) measures each input event as the time between
// the ">>>>> Dispatching" and "<<<<< Finished" logging callbacks; this
// package exposes those brackets as structured dispatch hooks, which the
// monitor consumes.
package looper

import (
	"hangdoctor/internal/cpu"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/stack"
)

// Message is one unit of main-thread work: an input event (or any posted
// runnable) expressed as scheduler segments.
type Message struct {
	// Name identifies the message, e.g. "Open Email/evt0".
	Name string
	// Segments is the main-thread program the message executes.
	Segments []cpu.Segment
	// Meta carries an opaque payload for higher layers (the app session
	// attaches its EventExec record here).
	Meta any
	// Origin is the message's causal provenance: which user action (and
	// through which spawn site) transitively produced it. Input-event
	// dispatches carry Kind "input"; Handler.post chains and worker
	// completions propagate the spawning dispatch's ActionUID. Samplers use
	// it to tag main-thread traces with the chain being executed.
	Origin stack.Origin
}

// DispatchHook observes message dispatch boundaries.
type DispatchHook interface {
	// DispatchStart fires when a message is dequeued for execution.
	DispatchStart(m *Message, at simclock.Time)
	// DispatchEnd fires when the message's last segment has retired.
	DispatchEnd(m *Message, start, end simclock.Time)
}

// Looper owns a thread and drains messages through it in FIFO order.
type Looper struct {
	clk    *simclock.Clock
	thread *cpu.Thread

	queue       []*Message
	dispatching bool

	hooks []DispatchHook

	current      *Message
	currentStart simclock.Time

	// fed is the message feed handed to the thread whose begin bracket has
	// not run yet; prog is feed's reused program buffer; beginFn and endFn
	// are the dispatch brackets, bound once.
	fed            *Message
	prog           []cpu.Segment
	beginFn, endFn func()
}

// New creates a looper with a fresh thread named name on sched.
func New(sched *cpu.Scheduler, name string) *Looper {
	l := &Looper{
		clk:    sched.Clock(),
		thread: sched.NewThread(name),
	}
	l.beginFn, l.endFn = l.begin, l.end
	return l
}

// Thread returns the looper's thread (the app's "main thread").
func (l *Looper) Thread() *cpu.Thread { return l.thread }

// AddDispatchHook registers a structured observer of dispatch boundaries.
func (l *Looper) AddDispatchHook(h DispatchHook) {
	l.hooks = append(l.hooks, h)
}

// Idle reports whether no message is executing and the queue is empty.
func (l *Looper) Idle() bool { return !l.dispatching && len(l.queue) == 0 }

// Current returns the message currently executing, or nil.
func (l *Looper) Current() *Message { return l.current }

// Post appends a message to the queue, starting the dispatch pump if the
// looper is idle.
func (l *Looper) Post(m *Message) {
	if m == nil {
		panic("looper: Post(nil)")
	}
	l.queue = append(l.queue, m)
	if !l.dispatching {
		l.dispatching = true
		l.feed()
	}
}

// feed moves the next queued message onto the thread, bracketed by the
// dispatch hooks. The end bracket chains into the next message so that
// back-to-back messages run without the thread parking in between (matching
// Looper.loop's behaviour and its context-switch profile). Only one message
// is on the thread at a time, so the brackets find it in l.fed and
// l.current. The program goes to the thread in one Enqueue, which copies
// it, so prog is free again by the time a nested feed reuses it. The queue
// pops by sliding its tail forward, so it keeps one backing array.
func (l *Looper) feed() {
	m := l.queue[0]
	n := copy(l.queue, l.queue[1:])
	l.queue[n] = nil
	l.queue = l.queue[:n]
	l.fed = m
	l.prog = append(l.prog[:0], cpu.Call(l.beginFn))
	l.prog = append(l.prog, m.Segments...)
	l.prog = append(l.prog, cpu.Call(l.endFn))
	l.thread.Enqueue(l.prog...)
}

func (l *Looper) begin() {
	m := l.fed
	l.fed = nil
	l.current = m
	l.currentStart = l.clk.Now()
	for _, h := range l.hooks {
		h.DispatchStart(m, l.currentStart)
	}
}

func (l *Looper) end() {
	m := l.current
	start := l.currentStart
	now := l.clk.Now()
	l.current = nil
	for _, h := range l.hooks {
		h.DispatchEnd(m, start, now)
	}
	if len(l.queue) > 0 {
		l.feed()
	} else {
		l.dispatching = false
	}
}
