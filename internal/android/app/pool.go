package app

import (
	"fmt"

	"hangdoctor/internal/android/looper"
	"hangdoctor/internal/cpu"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/stack"
)

// workerFrames are the constant outermost frames of any pool-worker stack —
// the executor plumbing that tops every worker dump, the off-main analogue
// of frameworkFrames.
var workerFrames = []stack.Frame{
	{Class: "java.util.concurrent.ThreadPoolExecutor$Worker", Method: "run", File: "ThreadPoolExecutor.java", Line: 1167},
	{Class: "java.lang.Thread", Method: "run", File: "Thread.java", Line: 764},
}

// futureGetFrame is the leaf a main-thread stack shows while a dispatch
// awaits asynchronous work — the SymAwait symbol that tells the causal
// analyzer the root cause lives in the awaited chain, not on this thread.
var futureGetFrame = stack.Frame{Class: "java.util.concurrent.FutureTask", Method: "get", File: "FutureTask.java", Line: 190}

// poolTask is one unit of work queued on the session's worker pool.
type poolTask struct {
	// op is the spawning op (ground-truth backref for cross-action blame).
	op *Op
	// origin is the causal edge the task's samples are tagged with.
	origin stack.Origin
	// segs is the worker-side program.
	segs []cpu.Segment
	// launch is the spawn the task belongs to; its worker reports the
	// task done when the program retires, before picking its next task
	// (join bookkeeping, completion posting).
	launch *launch
}

// launch is one execution of an async op, from the build of its
// main-thread program until nothing refers to it any more: its tasks, join
// gate and completion dispatch, with the callbacks that drive them bound
// once. refs counts what still refers to it — its tasks until the last one
// finishes, a completion until its program has run — and at zero the
// session takes it back for a later spawn. Detached tasks outlive their
// action, so a launch can end during a later action. The session reuses
// launches only while it builds an action's programs, before the clock
// moves: by then the main thread has run past the launch Call and the
// WaitGate of every launch whose tasks all finished.
type launch struct {
	s     *Session
	op    *Op
	exec  *ActionExec
	heavy bool
	refs  int

	tasks     []poolTask
	remaining int // tasks not finished
	hopsLeft  int
	submitAt  simclock.Time
	blocker   *Op
	gate      cpu.Gate

	hasComp bool
	comp    []cpu.Segment
	compDur simclock.Duration
	msg     looper.Message

	launchFn, hopFn, postFn, completedFn func()
}

// newLaunch returns a launch of op for exec, reusing a finished one when
// the session has any. It holds one reference, its tasks'.
func (s *Session) newLaunch(op *Op, exec *ActionExec, heavy bool) *launch {
	var l *launch
	if n := len(s.launches); n > 0 {
		l = s.launches[n-1]
		s.launches = s.launches[:n-1]
	} else {
		l = &launch{s: s}
		l.launchFn, l.hopFn, l.postFn, l.completedFn = l.start, l.hop, l.post, l.completed
	}
	l.op, l.exec, l.heavy, l.refs, l.hasComp = op, exec, heavy, 1, false
	return l
}

// start runs on the main thread at dispatch time. It captures the submit
// instant and the pool's current cross-op blocker (ground truth for convoy
// stalls) and hands the tasks to the pool — directly or through the
// postDelayed hop chain (the timer runs off-thread, so hops delay the work
// without occupying the looper).
func (l *launch) start() {
	s := l.s
	l.submitAt = s.Clk.Now()
	l.blocker = s.pool.blocker(l.op)
	if l.hasComp {
		s.pendingCompletions++
	}
	l.remaining = len(l.tasks)
	l.hopsLeft = l.op.Async.Hops
	l.hop()
}

// hop takes the next hop of the chain, or submits the tasks after the last.
func (l *launch) hop() {
	if l.hopsLeft > 0 {
		l.hopsLeft--
		l.s.Clk.After(l.op.Async.HopDelay, l.hopFn)
		return
	}
	for i := range l.tasks {
		l.s.pool.submit(&l.tasks[i])
	}
}

// taskDone runs on the worker as one of the launch's tasks finishes; the
// last one joins the spawn.
func (l *launch) taskDone() {
	if l.remaining--; l.remaining > 0 {
		return
	}
	if l.op.Async.Await {
		// The stall an awaited spawn actually imposed on the dispatch:
		// hop delays + queueing + task runtime. Recorded unconditionally —
		// the harness's perceivability threshold discards benign waits —
		// and attributed to the blocking op too when the pool was busy
		// with another op's work at submit (its bug caused this stall).
		stall := l.s.Clk.Now().Sub(l.submitAt)
		l.exec.addHeavy(HeavyOp{Op: l.op, Dur: stall})
		if l.blocker != nil {
			l.exec.addHeavy(HeavyOp{Op: l.blocker, Dur: stall})
		}
		l.gate.Open()
	}
	if l.hasComp {
		l.s.postCompletion(l)
	}
	l.release()
}

// post hands the completion message to the looper.
func (l *launch) post() { l.s.Looper.Post(&l.msg) }

// completed ends the completion dispatch's program.
func (l *launch) completed() {
	l.s.pendingCompletions--
	l.release()
}

// release drops one reference, and at the last hands l back to the
// session. The completion message stays as it is: its dispatch's end
// bracket, which still reads it, runs after the program's last Call.
func (l *launch) release() {
	if l.refs--; l.refs > 0 {
		return
	}
	l.op, l.exec, l.blocker = nil, nil, nil
	l.s.launches = append(l.s.launches, l)
}

// workerPool is the app's bounded ExecutorService: a fixed set of worker
// threads draining a FIFO task queue. Assignment is deterministic — the
// lowest-indexed idle worker takes the task, otherwise it queues — so
// replays are bit-identical. tasks[i] is worker i's current task, nil when
// it idles; the sampler reads its causal origin.
type workerPool struct {
	threads []*cpu.Thread
	tasks   []*poolTask
	queue   []*poolTask
	// finishFns[i] is worker i's finishing Call, bound once; prog is the
	// program buffer start hands to a worker, which Enqueue copies.
	finishFns []func()
	prog      []cpu.Segment
}

func newWorkerPool(sched *cpu.Scheduler, appName string, width int) *workerPool {
	p := &workerPool{
		threads:   make([]*cpu.Thread, width),
		tasks:     make([]*poolTask, width),
		finishFns: make([]func(), width),
	}
	for i := range p.threads {
		p.threads[i] = sched.NewThread(fmt.Sprintf("pool%d:%s", i, appName))
		p.finishFns[i] = func() { p.finish(i) }
	}
	return p
}

// submit hands t to an idle worker or queues it.
func (p *workerPool) submit(t *poolTask) {
	for i, cur := range p.tasks {
		if cur == nil {
			p.start(i, t)
			return
		}
	}
	p.queue = append(p.queue, t)
}

// start runs t on worker i. The finishing Call fires while the worker still
// holds its core, so a queued successor is picked up without a park — the
// executor's tight drain loop, mirroring the looper's.
func (p *workerPool) start(i int, t *poolTask) {
	p.tasks[i] = t
	p.prog = append(append(p.prog[:0], t.segs...), cpu.Call(p.finishFns[i]))
	p.threads[i].Enqueue(p.prog...)
}

func (p *workerPool) finish(i int) {
	p.tasks[i].launch.taskDone()
	if len(p.queue) > 0 {
		next := p.queue[0]
		n := copy(p.queue, p.queue[1:])
		p.queue[n] = nil
		p.queue = p.queue[:n]
		p.start(i, next)
		return
	}
	p.tasks[i] = nil
}

// blocker returns the op of a currently running task (lowest worker index
// first) spawned by a different op than o — the work a fresh submission
// would queue behind. nil when no such task runs.
func (p *workerPool) blocker(o *Op) *Op {
	for _, t := range p.tasks {
		if t != nil && t.op != o {
			return t.op
		}
	}
	return nil
}

// taskSegments builds a task's worker-side program: cost.CPU of compute at
// the task stack, interleaved with cost.Blocks blocking waits — the worker
// analogue of the main-thread op program, without caller slices or render
// posts. f is this execution's jitter factor. The program is appended
// onto segs.
func taskSegments(cost CostModel, rates *cpu.Rates, f float64, st *stack.Stack, segs []cpu.Segment) ([]cpu.Segment, simclock.Duration) {
	cpuTotal := simclock.Duration(float64(cost.CPU) * f)
	blockEach := simclock.Duration(float64(cost.BlockEach) * f)
	dur := cpuTotal + simclock.Duration(cost.Blocks)*blockEach
	if cost.Blocks > 0 {
		chunk := cpuTotal / simclock.Duration(cost.Blocks+1)
		segs = append(segs, cpu.Compute(chunk, rates, st))
		for i := 0; i < cost.Blocks; i++ {
			segs = append(segs,
				cpu.Block(blockEach, st),
				cpu.Compute(chunk, rates, st),
			)
		}
	} else {
		segs = append(segs, cpu.Compute(cpuTotal, rates, st))
	}
	return segs, dur
}
