// Package fault is the seeded, deterministic fault-injection layer of the
// simulated substrate. On a real phone Hang Doctor's two data sources are
// unreliable: perf_event_open fails under fd pressure or seccomp policy,
// PMU counters get multiplexed away mid-window, the render thread may not
// exist yet (cold start) or may be unobservable, and stack dumps are missed
// or truncated when the device is loaded. The injector models each of those
// failures with an independent rate and a private seed-derived RNG
// sub-stream, so that (a) runs are bit-reproducible from the seed, and
// (b) enabling one fault kind never perturbs the random decisions of
// another, or of the simulation itself.
//
// A nil *Injector is valid and injects nothing; every decision method
// returns the no-fault answer without drawing random numbers. Rates at
// exactly 0 likewise never draw, so a zero-rate injector is bit-identical
// to no injector at all — the property the degraded-mode tests pin down.
package fault

import (
	"hangdoctor/internal/obs"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

// Rates holds one independent probability per modeled fault. All rates are
// clamped to [0, 1] at decision time; the zero value injects nothing.
type Rates struct {
	// PerfOpenFail is the probability that opening a perf session fails
	// (perf_event_open returning EMFILE/EACCES on a real device).
	PerfOpenFail float64
	// CounterDrop is the per-(thread, event) probability that a counter's
	// value for a window is lost (multiplexed away for the whole window).
	CounterDrop float64
	// RenderLoss is the probability that the render thread's counters are
	// unavailable for a session, forcing main-thread-only operation.
	RenderLoss float64
	// StackMiss is the probability that one stack sample is lost entirely
	// (the dump timed out or the sampler was preempted).
	StackMiss float64
	// StackTruncate is the probability that one stack sample survives but
	// loses its outermost frames (partial dump under load).
	StackTruncate float64
	// SamplerOverrun is the probability that one sampler tick is late,
	// stretching the next sampling interval (CPU starvation of the
	// monitoring thread).
	SamplerOverrun float64
	// WorkerStackMiss is the probability that one pool-worker stack dump is
	// lost. Worker dumps fail independently of (and in practice more often
	// than) main-thread dumps: workers are not ptrace-stopped by the input
	// dispatch path, so the sampler races their scheduling.
	WorkerStackMiss float64
}

// Stats counts the faults an injector actually delivered, for the chaos
// harness's ground-truth view of how hostile a run really was.
type Stats struct {
	PerfOpenFails      int
	CountersDropped    int
	RenderLosses       int
	StacksMissed       int
	StacksTruncated    int
	SamplerOverruns    int
	WorkerStacksMissed int
}

// Injector makes the fault decisions. Each fault kind draws from its own
// derived sub-stream so kinds stay independent.
type Injector struct {
	rates Rates
	stats Stats

	openRng    *simrand.Rand
	counterRng *simrand.Rand
	renderRng  *simrand.Rand
	stackRng   *simrand.Rand
	truncRng   *simrand.Rand
	overrunRng *simrand.Rand
	workerRng  *simrand.Rand
}

// New builds an injector whose decisions are a pure function of seed and
// the sequence of decision calls.
func New(seed uint64, rates Rates) *Injector {
	root := simrand.New(seed)
	return &Injector{
		rates:      rates,
		openRng:    root.Derive("fault/perf-open"),
		counterRng: root.Derive("fault/counter-drop"),
		renderRng:  root.Derive("fault/render-loss"),
		stackRng:   root.Derive("fault/stack-miss"),
		truncRng:   root.Derive("fault/stack-trunc"),
		overrunRng: root.Derive("fault/sampler-overrun"),
		workerRng:  root.Derive("fault/worker-stack-miss"),
	}
}

// Stats returns the faults delivered so far (zero for a nil injector).
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// RegisterStats registers hangdoctor_fault_* callback counters into reg,
// reading delivered-fault counts from get at snapshot time, so the chaos
// ground truth shows up on the same exposition surface as the Doctor's
// health view. Reading through a provider rather than a captured injector
// matters: injectors are installed on a session after the detector
// attaches (and may be swapped between runs), and the registered series
// must always reflect the injector currently wired to the measurement
// plane. Injector stats mutate on the simulation goroutine; snapshot
// reads must not race a running simulation (they never do — both the sim
// and its scrapers are single-threaded per Doctor).
func RegisterStats(reg *obs.Registry, get func() Stats) {
	for _, c := range []struct {
		name, help string
		sel        func(Stats) int
	}{
		{"hangdoctor_fault_perf_open_fails_total", "Injected perf_event_open failures.", func(s Stats) int { return s.PerfOpenFails }},
		{"hangdoctor_fault_counters_dropped_total", "Injected per-window counter dropouts.", func(s Stats) int { return s.CountersDropped }},
		{"hangdoctor_fault_render_losses_total", "Injected render-thread counter losses.", func(s Stats) int { return s.RenderLosses }},
		{"hangdoctor_fault_stacks_missed_total", "Injected whole-stack sample losses.", func(s Stats) int { return s.StacksMissed }},
		{"hangdoctor_fault_stacks_truncated_total", "Injected stack truncations.", func(s Stats) int { return s.StacksTruncated }},
		{"hangdoctor_fault_sampler_overruns_total", "Injected late sampler ticks.", func(s Stats) int { return s.SamplerOverruns }},
		{"hangdoctor_fault_worker_stacks_missed_total", "Injected pool-worker stack sample losses.", func(s Stats) int { return s.WorkerStacksMissed }},
	} {
		sel := c.sel
		reg.CounterFunc(c.name, c.help, func() int64 { return int64(sel(get())) })
	}
}

// fire draws one decision at rate p from rng. It never draws when the rate
// is <= 0, so a zero-rate stream stays untouched and bit-reproducibility
// with the no-injector configuration holds.
func fire(rng *simrand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rng.Float64() < p
}

// PerfOpenFails decides whether one perf-session open attempt fails.
func (in *Injector) PerfOpenFails() bool {
	if in == nil || !fire(in.openRng, in.rates.PerfOpenFail) {
		return false
	}
	in.stats.PerfOpenFails++
	return true
}

// CounterDropped decides whether one (thread, event) counter value is lost
// for the window being read.
func (in *Injector) CounterDropped() bool {
	if in == nil || !fire(in.counterRng, in.rates.CounterDrop) {
		return false
	}
	in.stats.CountersDropped++
	return true
}

// RenderUnavailable decides whether the render thread's counters are
// unavailable for a session being opened.
func (in *Injector) RenderUnavailable() bool {
	if in == nil || !fire(in.renderRng, in.rates.RenderLoss) {
		return false
	}
	in.stats.RenderLosses++
	return true
}

// StackMissed decides whether one stack sample is lost entirely.
func (in *Injector) StackMissed() bool {
	if in == nil || !fire(in.stackRng, in.rates.StackMiss) {
		return false
	}
	in.stats.StacksMissed++
	return true
}

// WorkerStackMissed decides whether one pool-worker stack sample is lost.
func (in *Injector) WorkerStackMissed() bool {
	if in == nil || !fire(in.workerRng, in.rates.WorkerStackMiss) {
		return false
	}
	in.stats.WorkerStacksMissed++
	return true
}

// TruncateTo decides whether a stack dump of the given depth is truncated;
// when it is, it returns the number of innermost frames that survive
// (always >= 1 and < depth). Stacks of depth <= 1 cannot be truncated.
func (in *Injector) TruncateTo(depth int) (int, bool) {
	if in == nil || depth <= 1 || !fire(in.truncRng, in.rates.StackTruncate) {
		return depth, false
	}
	in.stats.StacksTruncated++
	return 1 + in.truncRng.Intn(depth-1), true
}

// OverrunExtra decides whether one sampler tick overruns; when it does, it
// returns the extra delay (1-3 periods) to add to the next interval.
func (in *Injector) OverrunExtra(period simclock.Duration) (simclock.Duration, bool) {
	if in == nil || period <= 0 || !fire(in.overrunRng, in.rates.SamplerOverrun) {
		return 0, false
	}
	in.stats.SamplerOverruns++
	return period * simclock.Duration(1+in.overrunRng.Intn(3)), true
}
