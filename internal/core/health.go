package core

import (
	"fmt"
	"strings"
	"unsafe"
)

// Health is the degraded-operation summary: what the measurement plane lost
// during a deployment and how the Doctor compensated. All counters stay zero
// on a perfect plane, and a zero Health is invisible in every rendered or
// exported artifact, so fault-free outputs are unchanged by its existence.
//
// Every field has a row in healthCounters, and its json tag is that row's
// stem.
type Health struct {
	// PerfOpenFailures counts failed perf-session open attempts (including
	// failed retries).
	PerfOpenFailures int `json:"perf_open_failures,omitempty"`
	// PerfOpenRetries counts retries scheduled after failed opens.
	PerfOpenRetries int `json:"perf_open_retries,omitempty"`
	// CountersLost counts S-Checker condition values dropped mid-window
	// (counter multiplexed away on either thread).
	CountersLost int `json:"counters_lost,omitempty"`
	// RenderLost counts sessions that fell back to main-thread-only
	// evaluation because the render thread's counters were unavailable.
	RenderLost int `json:"render_lost,omitempty"`
	// StacksDropped counts stack samples lost during trace collection.
	StacksDropped int `json:"stacks_dropped,omitempty"`
	// StacksTruncated counts stack samples that lost their outer frames.
	StacksTruncated int `json:"stacks_truncated,omitempty"`
	// SamplerOverruns counts late trace-collector ticks.
	SamplerOverruns int `json:"sampler_overruns,omitempty"`
	// VerdictsDeferred counts S-Checker/Diagnoser decisions postponed
	// because too little data survived to judge safely.
	VerdictsDeferred int `json:"verdicts_deferred,omitempty"`
	// LowConfidence counts verdicts rendered from degraded data (main-only
	// thresholds, partial counters, or partial stack sets).
	LowConfidence int `json:"low_confidence,omitempty"`
	// Quarantines counts actions quarantined for repeated open failures.
	Quarantines int `json:"quarantines,omitempty"`
	// WorkerStacksLost counts pool-worker stack samples lost during causal
	// trace collection (the worker side of StacksDropped).
	WorkerStacksLost int `json:"worker_stacks_lost,omitempty"`
	// CausalFallbacks counts diagnoses where the main thread was parked in an
	// await but no worker samples survived to attribute the chain, so the
	// Doctor fell back to main-thread-only attribution.
	CausalFallbacks int `json:"causal_fallbacks,omitempty"`
}

// healthCounter describes one Health field: its stem, which names the JSON
// key, the Doctor's hangdoctor_health_<stem>_total counter and a fleet
// node's hangdoctor_fleet_health_<stem> gauge; its label in String; the
// Doctor counter's help text; and the field's offset in Health. An offset
// rather than an accessor closure: a Health on the stack stays there when
// Add, the decoder or String reach its fields.
type healthCounter struct {
	stem, label, help string
	off               uintptr
}

// field returns c's field of h.
func (c *healthCounter) field(h *Health) *int {
	return (*int)(unsafe.Add(unsafe.Pointer(h), c.off))
}

// healthCounters lists every Health field once, in struct order. The first
// healthLegacy predate causal diagnosis: String always prints them and the
// binary health block carries them. The rest, the causal pair, ride the
// binary causal extension and print only when one of them is non-zero.
var healthCounters = [...]healthCounter{
	{"perf_open_failures", "open-fail", "perf_event_open attempts that failed.",
		unsafe.Offsetof(Health{}.PerfOpenFailures)},
	{"perf_open_retries", "retries", "Backed-off retries of failed perf opens.",
		unsafe.Offsetof(Health{}.PerfOpenRetries)},
	{"counters_lost", "counters-lost", "Per-condition counter values lost to multiplexing.",
		unsafe.Offsetof(Health{}.CountersLost)},
	{"render_lost", "render-lost", "Sessions that lost the render thread's counters.",
		unsafe.Offsetof(Health{}.RenderLost)},
	{"stacks_dropped", "stacks-dropped", "Stack samples lost entirely.",
		unsafe.Offsetof(Health{}.StacksDropped)},
	{"stacks_truncated", "stacks-truncated", "Stack samples that lost outer frames.",
		unsafe.Offsetof(Health{}.StacksTruncated)},
	{"sampler_overruns", "overruns", "Sampler ticks that fired late.",
		unsafe.Offsetof(Health{}.SamplerOverruns)},
	{"verdicts_deferred", "deferred", "Judgements skipped for lack of surviving data.",
		unsafe.Offsetof(Health{}.VerdictsDeferred)},
	{"low_confidence", "low-confidence", "Verdicts rendered from a degraded plane.",
		unsafe.Offsetof(Health{}.LowConfidence)},
	{"quarantines", "quarantines", "Actions quarantined after consecutive open failures.",
		unsafe.Offsetof(Health{}.Quarantines)},
	{"worker_stacks_lost", "worker-stacks-lost", "Pool-worker stack samples lost during causal collection.",
		unsafe.Offsetof(Health{}.WorkerStacksLost)},
	{"causal_fallbacks", "causal-fallbacks", "Await diagnoses degraded to main-thread-only attribution.",
		unsafe.Offsetof(Health{}.CausalFallbacks)},
}

// healthLegacy counts the leading healthCounters that predate causal
// diagnosis.
const healthLegacy = 10

// EachCounter calls fn with every counter's stem and value, in struct
// order.
func (h Health) EachCounter(fn func(stem string, v int)) {
	for _, c := range healthCounters {
		fn(c.stem, *c.field(&h))
	}
}

// Zero reports whether nothing degraded.
func (h Health) Zero() bool { return h == Health{} }

// causalZero reports whether both causal counters are zero.
func (h *Health) causalZero() bool {
	for i := healthLegacy; i < len(healthCounters); i++ {
		if *healthCounters[i].field(h) != 0 {
			return false
		}
	}
	return true
}

// Add accumulates another summary (fleet-side merge), saturating. It
// indexes the table rather than ranging over copies of its rows: a merge
// calls it once per fragment.
func (h *Health) Add(o Health) {
	for i := range healthCounters {
		p := healthCounters[i].field(h)
		*p = satAdd(*p, *healthCounters[i].field(&o))
	}
}

// String renders the summary on one line. The causal counters are appended
// only when non-zero, so pre-causal renderings (and the goldens that pin
// them) are unchanged.
func (h Health) String() string {
	n := len(healthCounters)
	if h.causalZero() {
		n = healthLegacy
	}
	var b strings.Builder
	for i, c := range healthCounters[:n] {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", c.label, *c.field(&h))
	}
	return b.String()
}
