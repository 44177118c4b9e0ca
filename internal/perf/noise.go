package perf

import (
	"math"

	"hangdoctor/internal/simrand"
)

// NoiseModel is the measurement-environment model applied to counter
// readings. On a real phone, per-thread counters do not contain only the
// thread's own work: interrupt handling, scheduler ticks, binder transactions
// and other co-resident kernel activity are charged to whichever thread
// context is current when they occur. Over a window this appears as
//
//	measured = true + base_e * window * g + eps_thread,e
//
// where base_e is the typical per-second baseline attributed to a foreground
// app thread, g is a *device-load factor shared by every thread measured in
// the same window* (thermal state, governor frequency, background sync
// bursts hit all threads together), and eps is thread-specific jitter.
//
// The shared g term is the mechanism behind the paper's Table 3 result:
// main-thread-only counters carry the full base*g variance, while the
// main-minus-render difference cancels it, so scheduling-related events
// correlate noticeably better with soft hang bugs in difference form.
// Thread-specific noise dominates for micro-architectural (PMU) events,
// whose counts depend on the particular code executed, so differencing
// helps them much less — exactly the split the paper observes.
type NoiseModel struct {
	rng *simrand.Rand

	// CommonSigma is the lognormal sigma of the shared device-load factor g.
	CommonSigma float64
	// KernelThreadSigma scales thread-specific jitter on kernel software
	// events (relative to their baseline).
	KernelThreadSigma float64
	// PMUThreadSigma scales thread-specific jitter on PMU events.
	PMUThreadSigma float64
	// BaseScale multiplies every baseline rate (device "busyness" knob).
	BaseScale float64
}

// DefaultNoise returns the measurement model calibrated against the paper's
// training data shapes (Table 3, Figure 4): baseline magnitudes comparable
// to — but not dominant over — the soft-hang signal over a few-hundred-ms
// window.
func DefaultNoise(rng *simrand.Rand) *NoiseModel {
	return &NoiseModel{
		rng:               rng.Derive("perf-noise"),
		CommonSigma:       0.45,
		KernelThreadSigma: 0.18,
		PMUThreadSigma:    0.9,
		BaseScale:         1,
	}
}

// baselinePerSec is the co-resident activity attributed to an app thread per
// second of wall time, per event. Time-based events are in nanoseconds per
// second; counts are events per second. PMU baselines are derived from the
// baseline CPU share (~1.2% of one core) at typical ARM rates.
func baselinePerSec(e Event) float64 {
	const baseCPU = 0.012 // fraction of a core of attributed activity
	switch e {
	case ContextSwitches:
		return 55
	case TaskClock, CPUClock:
		return baseCPU * 1e9
	case PageFaults:
		return 110
	case MinorFaults:
		return 104
	case MajorFaults:
		return 6
	case CPUMigrations:
		return 7
	case AlignmentFaults, EmulationFaults:
		return 0.02
	}
	// PMU events: rate while executing * baseline CPU share.
	perSecOfCPU := map[Event]float64{
		Instructions:          2.0e9,
		Cycles:                1.8e9,
		CacheReferences:       4.0e7,
		CacheMisses:           9.0e6,
		BranchInstructions:    3.6e8,
		BranchMisses:          8.0e6,
		BusCycles:             4.5e8,
		StalledCyclesFrontend: 3.0e8,
		StalledCyclesBackend:  5.0e8,
		L1DcacheLoads:         6.0e8,
		L1DcacheLoadMisses:    2.2e7,
		L1DcacheStores:        3.3e8,
		L1DcacheStoreMisses:   1.1e7,
		L1IcacheLoads:         5.5e8,
		L1IcacheLoadMisses:    9.0e6,
		LLCLoads:              2.4e7,
		LLCLoadMisses:         5.0e6,
		LLCStores:             1.2e7,
		LLCStoreMisses:        2.6e6,
		DTLBLoads:             5.8e8,
		DTLBLoadMisses:        2.4e6,
		ITLBLoads:             5.2e8,
		ITLBLoadMisses:        1.1e6,
		BranchLoads:           3.5e8,
		BranchLoadMisses:      7.6e6,
		NodeLoads:             1.8e7,
		NodeLoadMisses:        3.4e6,
		NodeStores:            9.0e6,
		NodeStoreMisses:       1.7e6,
		RawL1DcacheRefill:     2.1e7,
		RawL1ItlbRefill:       1.2e6,
		RawL2DcacheRefill:     7.0e6,
		RawBusAccess:          3.1e7,
		RawMemAccess:          8.9e8,
		RawExcTaken:           3.0e4,
		RawLdRetired:          5.9e8,
		RawStRetired:          3.2e8,
	}
	return perSecOfCPU[e] * baseCPU
}

// kernelSigmaScale captures how uneven per-event attribution jitter is on a
// real kernel: scheduler placement (migrations) and wakeup charging
// (context switches) fluctuate far more, relative to their baselines, than
// time accounting does.
func kernelSigmaScale(e Event) float64 {
	switch e {
	case CPUMigrations:
		return 13.0
	case ContextSwitches:
		return 0.8
	case MajorFaults:
		return 3.2
	case TaskClock, CPUClock:
		return 1.0
	default:
		return 1.4
	}
}

// commonFactor draws (or reuses, within one read pass) the shared
// device-load factor for the current window. Session.read calls it once per
// window so every thread in the window sees the same g.
func (n *NoiseModel) commonFactor() float64 {
	g := n.rng.LogNormal(0, n.CommonSigma)
	return g
}

// contribution returns the additive noise for event e over a window of
// windowSec seconds given the shared factor g. The common-mode term grows
// linearly with the window (it is real attributed activity); the
// thread-specific term grows with sqrt(window), as a sum of independent
// per-tick increments does.
func (n *NoiseModel) contribution(e Event, windowSec, g float64) float64 {
	rate := baselinePerSec(e) * n.BaseScale
	if rate == 0 || windowSec <= 0 {
		return 0
	}
	var sigma float64
	if e.Kernel() {
		sigma = n.KernelThreadSigma * kernelSigmaScale(e)
	} else {
		sigma = n.PMUThreadSigma
	}
	// refWindow anchors the sqrt scaling so a ~0.4 s action window keeps
	// the calibrated noise magnitude.
	const refWindow = 0.4
	common := rate * windowSec * g
	eps := n.rng.NormFloat64() * sigma * rate * math.Sqrt(windowSec*refWindow)
	v := common + eps
	if v < 0 {
		v = 0
	}
	return v
}
