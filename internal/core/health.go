package core

import "fmt"

// Health is the degraded-operation summary: what the measurement plane lost
// during a deployment and how the Doctor compensated. All counters stay zero
// on a perfect plane, and a zero Health is invisible in every rendered or
// exported artifact, so fault-free outputs are unchanged by its existence.
type Health struct {
	// PerfOpenFailures counts failed perf-session open attempts (including
	// failed retries).
	PerfOpenFailures int
	// PerfOpenRetries counts retries scheduled after failed opens.
	PerfOpenRetries int
	// CountersLost counts S-Checker condition values dropped mid-window
	// (counter multiplexed away on either thread).
	CountersLost int
	// RenderLost counts sessions that fell back to main-thread-only
	// evaluation because the render thread's counters were unavailable.
	RenderLost int
	// StacksDropped counts stack samples lost during trace collection.
	StacksDropped int
	// StacksTruncated counts stack samples that lost their outer frames.
	StacksTruncated int
	// SamplerOverruns counts late trace-collector ticks.
	SamplerOverruns int
	// VerdictsDeferred counts S-Checker/Diagnoser decisions postponed
	// because too little data survived to judge safely.
	VerdictsDeferred int
	// LowConfidence counts verdicts rendered from degraded data (main-only
	// thresholds, partial counters, or partial stack sets).
	LowConfidence int
	// Quarantines counts actions quarantined for repeated open failures.
	Quarantines int
	// WorkerStacksLost counts pool-worker stack samples lost during causal
	// trace collection (the worker side of StacksDropped).
	WorkerStacksLost int
	// CausalFallbacks counts diagnoses where the main thread was parked in an
	// await but no worker samples survived to attribute the chain, so the
	// Doctor fell back to main-thread-only attribution.
	CausalFallbacks int
}

// Zero reports whether nothing degraded.
func (h Health) Zero() bool { return h == Health{} }

// Add accumulates another summary (fleet-side merge), saturating.
func (h *Health) Add(o Health) {
	h.PerfOpenFailures = satAdd(h.PerfOpenFailures, o.PerfOpenFailures)
	h.PerfOpenRetries = satAdd(h.PerfOpenRetries, o.PerfOpenRetries)
	h.CountersLost = satAdd(h.CountersLost, o.CountersLost)
	h.RenderLost = satAdd(h.RenderLost, o.RenderLost)
	h.StacksDropped = satAdd(h.StacksDropped, o.StacksDropped)
	h.StacksTruncated = satAdd(h.StacksTruncated, o.StacksTruncated)
	h.SamplerOverruns = satAdd(h.SamplerOverruns, o.SamplerOverruns)
	h.VerdictsDeferred = satAdd(h.VerdictsDeferred, o.VerdictsDeferred)
	h.LowConfidence = satAdd(h.LowConfidence, o.LowConfidence)
	h.Quarantines = satAdd(h.Quarantines, o.Quarantines)
	h.WorkerStacksLost = satAdd(h.WorkerStacksLost, o.WorkerStacksLost)
	h.CausalFallbacks = satAdd(h.CausalFallbacks, o.CausalFallbacks)
}

// String renders the summary on one line. The causal counters are appended
// only when non-zero, so pre-causal renderings (and the goldens that pin
// them) are unchanged.
func (h Health) String() string {
	s := fmt.Sprintf(
		"open-fail=%d retries=%d counters-lost=%d render-lost=%d stacks-dropped=%d stacks-truncated=%d overruns=%d deferred=%d low-confidence=%d quarantines=%d",
		h.PerfOpenFailures, h.PerfOpenRetries, h.CountersLost, h.RenderLost,
		h.StacksDropped, h.StacksTruncated, h.SamplerOverruns,
		h.VerdictsDeferred, h.LowConfidence, h.Quarantines)
	if h.WorkerStacksLost != 0 || h.CausalFallbacks != 0 {
		s += fmt.Sprintf(" worker-stacks-lost=%d causal-fallbacks=%d",
			h.WorkerStacksLost, h.CausalFallbacks)
	}
	return s
}
