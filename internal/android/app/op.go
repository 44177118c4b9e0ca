package app

import (
	"hangdoctor/internal/android/api"
	"hangdoctor/internal/cpu"
	"hangdoctor/internal/perf"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/stack"
)

// CostModel describes how an operation consumes the machine when it runs:
// main-thread CPU, blocking waits, memory behaviour, and the rendering work
// it posts to the render thread. The model is the knob set that gives each
// seeded bug its performance-event signature (which of S-Checker's three
// conditions it trips, Table 6) and each UI operation its render-heavy
// profile.
type CostModel struct {
	// CPU is the median main-thread CPU time.
	CPU simclock.Duration
	// Jitter is the lognormal sigma applied to CPU and block durations per
	// execution (real I/O and parse times are right-skewed).
	Jitter float64
	// Blocks is the number of blocking waits (file reads, lock waits, DB
	// round trips) interleaved with the CPU time. Each wait is a voluntary
	// context switch.
	Blocks int
	// BlockEach is the median duration of each blocking wait.
	BlockEach simclock.Duration
	// PreShare is the fraction of CPU spent in caller-level code before and
	// after the leaf operation (stacks sampled there show the handler, not
	// the leaf API), controlling the Diagnoser's occurrence factor. Zero
	// means the default of 0.15.
	PreShare float64

	// MinorFaultsPerSec / MajorFaultsPerSec while on CPU.
	MinorFaultsPerSec float64
	MajorFaultsPerSec float64
	// InstructionsPerSec while on CPU (PMU profile anchor).
	InstructionsPerSec float64
	// MemIntensity scales cache/memory PMU event rates (1 = typical).
	MemIntensity float64

	// Frames and PerFrame describe render-thread work posted at the end of
	// the main-thread portion (UI operations only).
	Frames   int
	PerFrame simclock.Duration

	// PMUScale multiplies every micro-architectural (PMU) event rate.
	// Different operations have wildly different instruction mixes even
	// within one archetype — this is the per-op heterogeneity that makes
	// PMU events correlate worse with the bug/UI label than scheduling
	// events do (paper Table 3). Zero means 1.
	PMUScale float64
}

// preShare returns the effective caller-level share.
func (m CostModel) preShare() float64 {
	if m.PreShare == 0 {
		return 0.15
	}
	return m.PreShare
}

// MainDuration returns the median wall time the op occupies the main thread.
func (m CostModel) MainDuration() simclock.Duration {
	return m.CPU + simclock.Duration(m.Blocks)*m.BlockEach
}

// Rates derives the full per-second event rate vector from the cost knobs,
// using fixed architectural ratios typical of a big ARM core.
func (m CostModel) Rates() cpu.Rates {
	var r cpu.Rates
	r.MinorFaults = m.MinorFaultsPerSec
	r.MajorFaults = m.MajorFaultsPerSec
	ips := m.InstructionsPerSec
	if ips == 0 {
		ips = 1.2e9
	}
	mem := m.MemIntensity
	if mem == 0 {
		mem = 1
	}
	set := func(e perf.Event, v float64) { r.HW[e.HWIndex()] = v }
	set(perf.Instructions, ips)
	set(perf.Cycles, 1.8e9)
	set(perf.CacheReferences, ips*0.020*mem)
	set(perf.CacheMisses, ips*0.0045*mem)
	set(perf.BranchInstructions, ips*0.18)
	set(perf.BranchMisses, ips*0.004)
	set(perf.BusCycles, 4.5e8)
	set(perf.StalledCyclesFrontend, 1.8e9*0.15)
	set(perf.StalledCyclesBackend, 1.8e9*0.25*mem)
	set(perf.L1DcacheLoads, ips*0.30)
	set(perf.L1DcacheLoadMisses, ips*0.011*mem)
	set(perf.L1DcacheStores, ips*0.165)
	set(perf.L1DcacheStoreMisses, ips*0.0055*mem)
	set(perf.L1IcacheLoads, ips*0.275)
	set(perf.L1IcacheLoadMisses, ips*0.0045)
	set(perf.LLCLoads, ips*0.012*mem)
	set(perf.LLCLoadMisses, ips*0.0025*mem)
	set(perf.LLCStores, ips*0.006*mem)
	set(perf.LLCStoreMisses, ips*0.0013*mem)
	set(perf.DTLBLoads, ips*0.29)
	set(perf.DTLBLoadMisses, ips*0.0012*mem)
	set(perf.ITLBLoads, ips*0.26)
	set(perf.ITLBLoadMisses, ips*0.00055)
	set(perf.BranchLoads, ips*0.175)
	set(perf.BranchLoadMisses, ips*0.0038)
	set(perf.NodeLoads, ips*0.009*mem)
	set(perf.NodeLoadMisses, ips*0.0017*mem)
	set(perf.NodeStores, ips*0.0045*mem)
	set(perf.NodeStoreMisses, ips*0.00085*mem)
	set(perf.RawL1DcacheRefill, ips*0.0105*mem)
	set(perf.RawL1ItlbRefill, ips*0.0006)
	set(perf.RawL2DcacheRefill, ips*0.0035*mem)
	set(perf.RawBusAccess, ips*0.0155*mem)
	set(perf.RawMemAccess, ips*0.445)
	set(perf.RawExcTaken, 1.5e4)
	set(perf.RawLdRetired, ips*0.295)
	set(perf.RawStRetired, ips*0.16)
	if m.PMUScale != 0 && m.PMUScale != 1 {
		for i := range r.HW {
			r.HW[i] *= m.PMUScale
		}
	}
	return r
}

// renderRates is the PMU/fault profile of render-thread frame work: memory
// heavy (texture uploads, display lists) with its own fault pressure.
func renderRates() cpu.Rates {
	m := CostModel{InstructionsPerSec: 1.4e9, MemIntensity: 1.6,
		MinorFaultsPerSec: 2600, MajorFaultsPerSec: 8}
	return m.Rates()
}

// renderRatesV is the render profile derived once: it has no per-op knobs,
// so every frame batch shares one vector.
var renderRatesV = renderRates()

// Cost archetype constructors. These encode the four bug signatures the
// corpus needs (see DESIGN.md §4, Table 6) plus the UI profile.

// UIWork models a legitimate heavy UI operation: main-thread layout/measure
// CPU followed by a comparable amount of render-thread frame work. Both
// sides of the main-minus-render difference move together, so none of
// S-Checker's conditions should fire (most of the time).
func UIWork(mainCPU simclock.Duration, frames int) CostModel {
	perFrame := simclock.Duration(0)
	if frames > 0 {
		perFrame = mainCPU / simclock.Duration(frames)
		if perFrame < simclock.Millisecond {
			perFrame = simclock.Millisecond
		}
	}
	return CostModel{
		CPU:                mainCPU,
		Jitter:             0.25,
		MinorFaultsPerSec:  1500,
		MajorFaultsPerSec:  4,
		InstructionsPerSec: 1.0e9,
		MemIntensity:       1.2,
		Frames:             frames,
		PerFrame:           perFrame,
	}
}

// IOHeavy models a blocking-I/O operation (file reads, network on main,
// camera open): many voluntary context switches, little CPU. Trips the
// context-switch condition only.
func IOHeavy(cpuTime simclock.Duration, blocks int, blockEach simclock.Duration) CostModel {
	return CostModel{
		CPU:                cpuTime,
		Jitter:             0.35,
		Blocks:             blocks,
		BlockEach:          blockEach,
		MinorFaultsPerSec:  900,
		MajorFaultsPerSec:  30,
		InstructionsPerSec: 0.8e9,
		MemIntensity:       0.8,
	}
}

// CPULoop models a self-developed lengthy computation (heavy loop): long
// main-thread CPU burns that get preempted under background load. Trips the
// context-switch and task-clock conditions.
func CPULoop(cpuTime simclock.Duration) CostModel {
	return CostModel{
		CPU:                cpuTime,
		Jitter:             0.20,
		MinorFaultsPerSec:  350,
		InstructionsPerSec: 2.2e9,
		MemIntensity:       0.5,
	}
}

// MemHeavy models a mostly-blocked operation with intense memory churn in
// its short CPU portions (mmap-backed DB pages, large allocations): high
// page-fault counts without much CPU or many switches. Trips the page-fault
// condition only — provided the surrounding action also renders frames so
// the render thread collects comparable switches.
func MemHeavy(cpuTime simclock.Duration, blocks int, blockEach simclock.Duration, faultsPerSec float64) CostModel {
	return CostModel{
		CPU:                cpuTime,
		Jitter:             0.30,
		Blocks:             blocks,
		BlockEach:          blockEach,
		MinorFaultsPerSec:  faultsPerSec,
		MajorFaultsPerSec:  faultsPerSec * 0.04,
		InstructionsPerSec: 0.9e9,
		MemIntensity:       2.2,
	}
}

// ParseHeavy models parse/serialize work (HtmlCleaner.clean, gson.toJson):
// long CPU with heavy allocation — trips all three conditions.
func ParseHeavy(cpuTime simclock.Duration) CostModel {
	return CostModel{
		CPU:                cpuTime,
		Jitter:             0.30,
		MinorFaultsPerSec:  9000,
		MajorFaultsPerSec:  60,
		InstructionsPerSec: 1.8e9,
		MemIntensity:       1.8,
	}
}

// Light returns a scaled-down version of m for non-manifesting executions
// (cached data, small inputs): same shape, fraction of the cost.
func (m CostModel) Light(frac float64) *CostModel {
	l := m
	l.CPU = simclock.Duration(float64(m.CPU) * frac)
	l.BlockEach = simclock.Duration(float64(m.BlockEach) * frac)
	if l.Blocks > 2 {
		l.Blocks = 2
	}
	l.Frames = int(float64(m.Frames) * frac)
	return &l
}

// Async describes asynchronous work an op triggers through the session's
// bounded worker pool instead of running its heavy portion on the main
// thread. The op's own CostModel becomes the on-main marshalling around the
// spawn; the real work is Task, executed on a pool worker carrying a causal
// edge back to the originating action. The fields compose into the async
// bug patterns the corpus seeds: Await alone is the on-main-await pattern,
// Tasks > pool width is the post-storm / serialized-pool convoy, Hops adds
// a delayed-post timer chain, Completion.CPU > 0 delivers the result as its
// own main-thread dispatch (async-I/O completion on main), and neither
// Await nor Completion leaves the task detached past the dispatch — the
// leaky-ordering ingredient, where a later action's await queues behind it.
type Async struct {
	// Tasks is the number of tasks submitted (fan-out); 0 means 1.
	Tasks int
	// Task is each task's worker-side cost.
	Task CostModel
	// Await blocks the dispatch on the tasks' join (FutureTask.get on main).
	Await bool
	// Hops routes the submission through a postDelayed timer chain of this
	// many hops before the task reaches the pool.
	Hops int
	// HopDelay is the per-hop delay (required when Hops > 0).
	HopDelay simclock.Duration
	// Completion, when its CPU is non-zero, is posted back to the main
	// thread after the last task finishes and runs as its own monitored
	// dispatch within the action.
	Completion CostModel
	// CompletionDelay posts the completion through Handler.postDelayed with
	// this delay instead of posting it immediately.
	CompletionDelay simclock.Duration
	// TaskFrame overrides the leaf frame of the worker-side stack; nil means
	// the op's own leaf (the usual case, where the spawned work *is* the
	// op's API). Completion-pattern ops use it to separate the off-thread
	// I/O frame from the on-main completion leaf.
	TaskFrame *stack.Frame
}

// Op is one operation executed by an input event on the main thread: a call
// to a platform/library API, or a self-developed code region.
type Op struct {
	// Name is a short human-readable label.
	Name string
	// API is the leaf API called, or nil for self-developed code.
	API *api.API
	// Self is the leaf frame for self-developed code (nil for API ops).
	Self *stack.Frame
	// Via is the wrapper chain between the handler and the leaf API,
	// outermost first: the handler calls Via[0], which calls Via[1], ...,
	// which calls API. Library nesting (the cupboard → SQLite case) lives
	// here.
	Via []*api.API
	// Heavy is the manifesting cost; Light (optional) the benign cost.
	Heavy CostModel
	Light *CostModel
	// Manifest is the per-execution probability that Heavy applies
	// (occasionally-manifesting bugs have Manifest < 1).
	Manifest float64
	// Bug links the op to its seeded-bug metadata; nil for benign ops.
	Bug *Bug
	// Async, when non-nil, makes the op spawn its heavy work through the
	// session's worker pool instead of executing it inline; see Async.
	Async *Async

	// heavyRates / lightRates are the cost models' event-rate vectors,
	// derived once at App.Finalize so dispatches stop recomputing the
	// 40-slot HW vector per execution; segments point at them, so they are
	// written nowhere else. lightRates is only meaningful when
	// Light is non-nil (ops without a Light model share defaultLightRates).
	heavyRates cpu.Rates
	lightRates cpu.Rates

	// Async precomputation (App.Finalize, ops with Async only): the
	// worker-side and await-side stacks, their rate vectors, the causal
	// origins every spawned task is tagged with, and the completion
	// dispatch's event and message names — all immutable and shared across
	// executions so tagging a sample is a struct copy.
	taskStack        *stack.Stack
	awaitStack       *stack.Stack
	taskRates        cpu.Rates
	completionRates  cpu.Rates
	spawnOrigin      stack.Origin
	completionOrigin stack.Origin
	completionEvent  string
	completionMsg    string
}

// segmentsFor returns the scheduler-segment count one dispatch of the op
// needs under cost m: pre + post caller slices, the leaf portion (with its
// block/compute interleaving), and the render post.
func segmentsFor(m CostModel) int {
	n := 2 // pre + post
	if m.Blocks > 0 {
		n += 1 + 2*m.Blocks
	} else {
		n++
	}
	if m.Frames > 0 && m.PerFrame > 0 {
		n++
	}
	return n
}

// maxSegments bounds the segment count across the op's heavy and light
// executions.
func (o *Op) maxSegments() int {
	n := segmentsFor(o.Heavy)
	light := defaultLightCost()
	if o.Light != nil {
		light = *o.Light
	}
	if ln := segmentsFor(light); ln > n {
		n = ln
	}
	if o.Async != nil {
		n += 2 // launch Call + (possibly) the await gate
	}
	return n
}

// taskCount returns the effective fan-out of an Async spec.
func (a *Async) taskCount() int {
	if a.Tasks <= 0 {
		return 1
	}
	return a.Tasks
}

// TaskLeafFrame returns the leaf frame of the op's worker-side stack: the
// Async.TaskFrame override, or the op's own leaf.
func (o *Op) TaskLeafFrame() stack.Frame {
	if o.Async != nil && o.Async.TaskFrame != nil {
		return *o.Async.TaskFrame
	}
	return o.LeafFrame()
}

// LeafFrame returns the innermost frame this op puts on the stack.
func (o *Op) LeafFrame() stack.Frame {
	if o.API != nil {
		return o.API.Frame()
	}
	if o.Self != nil {
		return *o.Self
	}
	return stack.Frame{Class: "app.Unknown", Method: o.Name, File: "Unknown.java", Line: 1}
}

// LeafKey returns the occurrence-counting key of the leaf frame.
func (o *Op) LeafKey() string { return o.LeafFrame().Key() }

// CallChain returns the API chain [Via..., API] (empty for self ops).
func (o *Op) CallChain() []*api.API {
	if o.API == nil {
		return nil
	}
	chain := make([]*api.API, 0, len(o.Via)+1)
	chain = append(chain, o.Via...)
	chain = append(chain, o.API)
	return chain
}

// VisibleAPIs returns the prefix of the call chain an offline source scanner
// can observe: the call *into* a closed-source library is visible in app
// code, but nothing the library calls internally is. Self-developed ops have
// no API chain at all, so offline tools see nothing.
func (o *Op) VisibleAPIs() []*api.API {
	chain := o.CallChain()
	if len(chain) == 0 {
		return nil
	}
	visible := chain[:1]
	for i := 1; i < len(chain); i++ {
		if chain[i-1].Class.ClosedSource {
			break
		}
		visible = chain[:i+1]
	}
	return visible
}

// IsUI reports whether the op's leaf is a UI-class call per the registry.
func (o *Op) IsUI(reg *api.Registry) bool {
	if o.API == nil {
		return false
	}
	return reg.IsUIClass(o.API.Class.Name)
}
