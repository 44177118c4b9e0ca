// Package core implements Hang Doctor, the paper's contribution: a runtime
// two-phase soft-hang detector that runs inside an app. Phase one
// (S-Checker) reads three performance-event counters as main-minus-render
// differences at the end of every Uncategorized action that hangs and
// filters out UI-caused hangs cheaply; phase two (Diagnoser) collects main
// thread stack traces during the next hang of a Suspicious action and
// attributes the root cause by occurrence-factor analysis. Diagnosed
// blocking APIs flow into the Hang Bug Report for the developer and into
// the known-blocking database used by offline tools.
package core

import (
	"hangdoctor/internal/perf"
	"hangdoctor/internal/simclock"
)

// Condition is one S-Checker symptom: the event's main-minus-render
// difference over the action window exceeds Threshold.
type Condition struct {
	Event     perf.Event
	Threshold int64
}

// DefaultConditions returns the paper's three soft-hang-bug symptoms
// (§3.3.1): positive context-switch difference, task-clock difference above
// 1.7e8 ns, page-fault difference above 500.
func DefaultConditions() []Condition {
	return []Condition{
		{Event: perf.ContextSwitches, Threshold: 0},
		{Event: perf.TaskClock, Threshold: 170_000_000},
		{Event: perf.PageFaults, Threshold: 500},
	}
}

// Config parameterizes a Doctor. The zero value is completed by
// (*Config).withDefaults; Doctor constructors call it for you.
type Config struct {
	// Conditions are the S-Checker symptoms (default: the paper's three).
	Conditions []Condition
	// OccurrenceHigh is the occurrence-factor threshold above which a
	// single API is reported as the root cause (default 0.5).
	OccurrenceHigh float64
	// MinTraces is the minimum number of stack samples that must *survive*
	// collection before the Trace Analyzer renders a verdict (default 3):
	// an occurrence factor computed from one or two samples of a borderline
	// ~100 ms hang says nothing, and the action stays Suspicious until a
	// longer hang is captured. When fault injection eats samples, falling
	// below this minimum defers the Suspicious → HangBug/Normal transition
	// instead of judging from too little data.
	MinTraces int
	// ResetEvery returns a Normal action to Uncategorized after this many
	// executions, so occasionally-manifesting bugs get re-checked (default
	// 20, as in the paper's EventBreak reference; 0 disables).
	ResetEvery int

	// PerfRetryBackoff is the delay before the first retry of a failed
	// perf-session open, doubling per attempt (default 5 ms). It is inert
	// on a perfect measurement plane, as are the degraded-operation
	// constants below.
	PerfRetryBackoff simclock.Duration

	// Ablation switches (all default off; used by the ablation benches).

	// MainThreadOnly evaluates conditions on main-thread counters alone
	// instead of main-minus-render differences (Table 3(b) configuration).
	MainThreadOnly bool
	// NoCausal disables causal async diagnosis: worker threads are not
	// monitored or sampled, and diagnosis falls back to pure main-thread
	// occurrence-factor analysis — the paper's original analyzer, kept as
	// the head-to-head baseline for the causal experiment. On apps with no
	// async ops the two configurations are bit-identical.
	NoCausal bool
	// Phase1Only skips the Diagnoser: S-Checker verdicts are final, and
	// suspicious actions are reported without stack-trace confirmation.
	Phase1Only bool
	// Phase2Only skips the S-Checker: every soft hang is stack-traced and
	// diagnosed (the overhead profile of a Timeout-based detector with
	// Hang Doctor's analyzer bolted on).
	Phase2Only bool
	// EarlyRead, when positive, makes S-Checker read the counters this long
	// after the action starts instead of at action end — the strategy §3.3.1
	// rejects because early windows of UI actions look like bugs (Figure 5).
	EarlyRead simclock.Duration
	// CollectAdaptation records labeled S-Checker readings for the
	// automatic filter adaptation extension (see adapt.go).
	CollectAdaptation bool
	// WideCollectEvery, when positive, runs the §3.3.1 periodic
	// data-collection task: every Nth action execution (independent of the
	// action's state), Hang Doctor measures the full candidate-event set
	// and samples stack traces during any soft hang, producing labeled
	// HeavyReadings for the heavy (server-side) adaptation pass. The
	// period should be long enough that the extra overhead is negligible.
	WideCollectEvery int
}

func (c Config) withDefaults() Config {
	if c.Conditions == nil {
		c.Conditions = DefaultConditions()
	}
	if c.OccurrenceHigh == 0 {
		c.OccurrenceHigh = 0.5
	}
	if c.MinTraces == 0 {
		c.MinTraces = 3
	}
	if c.ResetEvery == 0 {
		c.ResetEvery = 20
	}
	if c.PerfRetryBackoff == 0 {
		c.PerfRetryBackoff = 5 * simclock.Millisecond
	}
	return c
}

// Degraded operation: how the Doctor compensates when the measurement
// plane fails (see internal/fault). Every one of these is inert on a
// perfect plane. The soft-hang threshold is detect.PerceivableDelay and
// the Diagnoser samples every detect.StackSamplePeriod.
const (
	// perfOpenRetries is how many times a failed perf-session open is
	// retried within the same action execution: up to three attempts.
	perfOpenRetries = 2
	// quarantineAfter quarantines an action after this many consecutive
	// executions in which no perf session could be opened at all.
	quarantineAfter = 3
	// quarantineExecs is how many executions a quarantined action skips
	// S-Checker monitoring for, avoiding open costs that keep failing.
	// Judgement is deferred meanwhile.
	quarantineExecs = 25
	// degradedMarginScale multiplies non-zero condition thresholds when the
	// render-thread difference is unavailable and the S-Checker falls back
	// to main-thread-only values: main-only counters include the
	// common-mode baseline the difference would cancel, so the margins
	// must widen to keep UI work from looking like a bug.
	degradedMarginScale = 2
	// degradedZeroThreshold replaces zero thresholds (the context-switch
	// condition) in degraded main-thread-only mode, where a strictly
	// positive count no longer implies a blocked main thread.
	degradedZeroThreshold = 8
)

// degradedThreshold widens a condition's threshold for main-thread-only
// evaluation when the render difference is unavailable.
func degradedThreshold(cond Condition) int64 {
	if cond.Threshold > 0 {
		return int64(float64(cond.Threshold) * degradedMarginScale)
	}
	return degradedZeroThreshold
}

// conditionEvents lists the events the S-Checker must monitor.
func (c Config) conditionEvents() []perf.Event {
	out := make([]perf.Event, len(c.Conditions))
	for i, cond := range c.Conditions {
		out[i] = cond.Event
	}
	return out
}
