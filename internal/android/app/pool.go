package app

import (
	"fmt"

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
	// done runs on the worker when the program retires, before the worker
	// picks its next task (join bookkeeping, completion posting).
	done func()
}

// workerPool is the app's bounded ExecutorService: a fixed set of worker
// threads draining a FIFO task queue. Assignment is deterministic — the
// lowest-indexed idle worker takes the task, otherwise it queues — so
// replays are bit-identical. Each busy worker remembers its current task's
// causal origin for the sampler.
type workerPool struct {
	threads []*cpu.Thread
	busy    []bool
	origins []stack.Origin
	ops     []*Op
	queue   []*poolTask
}

func newWorkerPool(sched *cpu.Scheduler, appName string, width int) *workerPool {
	p := &workerPool{
		threads: make([]*cpu.Thread, width),
		busy:    make([]bool, width),
		origins: make([]stack.Origin, width),
		ops:     make([]*Op, width),
	}
	for i := range p.threads {
		p.threads[i] = sched.NewThread(fmt.Sprintf("pool%d:%s", i, appName))
	}
	return p
}

// submit hands t to an idle worker or queues it.
func (p *workerPool) submit(t *poolTask) {
	for i := range p.threads {
		if !p.busy[i] {
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
	p.busy[i] = true
	p.origins[i] = t.origin
	p.ops[i] = t.op
	program := make([]cpu.Segment, 0, len(t.segs)+1)
	program = append(program, t.segs...)
	program = append(program, cpu.Call(func() { p.finish(i, t) }))
	p.threads[i].Enqueue(program...)
}

func (p *workerPool) finish(i int, t *poolTask) {
	if t.done != nil {
		t.done()
	}
	if len(p.queue) > 0 {
		next := p.queue[0]
		p.queue = p.queue[1:]
		p.origins[i] = next.origin
		p.ops[i] = next.op
		program := make([]cpu.Segment, 0, len(next.segs)+1)
		program = append(program, next.segs...)
		program = append(program, cpu.Call(func() { p.finish(i, next) }))
		p.threads[i].Enqueue(program...)
		return
	}
	p.busy[i] = false
	p.origins[i] = stack.Origin{}
	p.ops[i] = nil
}

// idle reports whether no worker is busy and nothing is queued.
func (p *workerPool) idle() bool {
	if len(p.queue) > 0 {
		return false
	}
	for _, b := range p.busy {
		if b {
			return false
		}
	}
	return true
}

// blocker returns the op of a currently running task (lowest worker index
// first) spawned by a different op than o — the work a fresh submission
// would queue behind. nil when no such task runs.
func (p *workerPool) blocker(o *Op) *Op {
	for i := range p.threads {
		if p.busy[i] && p.ops[i] != o {
			return p.ops[i]
		}
	}
	return nil
}

// taskSegments builds a task's worker-side program: cost.CPU of compute at
// the task stack, interleaved with cost.Blocks blocking waits — the worker
// analogue of the main-thread op program, without caller slices or render
// posts. f is this execution's jitter factor.
func taskSegments(cost CostModel, rates *cpu.Rates, f float64, st *stack.Stack) ([]cpu.Segment, simclock.Duration) {
	cpuTotal := simclock.Duration(float64(cost.CPU) * f)
	blockEach := simclock.Duration(float64(cost.BlockEach) * f)
	dur := cpuTotal + simclock.Duration(cost.Blocks)*blockEach
	n := 1
	if cost.Blocks > 0 {
		n += 2 * cost.Blocks
	}
	segs := make([]cpu.Segment, 0, n)
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
