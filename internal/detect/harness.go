package detect

import (
	"hangdoctor/internal/android/app"
	"hangdoctor/internal/cpu"
	"hangdoctor/internal/simclock"
)

// Harness runs a user trace on one app session with detectors attached and
// scores the outcome.
type Harness struct {
	Session   *app.Session
	Detectors []Detector
	Execs     []*app.ActionExec
	appCPU0   int64
}

// NewHarness builds a session for the app/device/seed and attaches the
// detectors.
func NewHarness(a *app.App, dev app.Device, seed uint64, detectors ...Detector) (*Harness, error) {
	s, err := app.NewSession(a, dev, seed)
	if err != nil {
		return nil, err
	}
	h := &Harness{Session: s, Detectors: detectors}
	for _, d := range detectors {
		d.Attach(s)
		s.AddListener(d)
	}
	h.appCPU0 = h.appCPUNs()
	return h, nil
}

// EnableCostInjection makes every attached detector's accounted CPU cost
// execute as real work on a dedicated monitoring thread, like Hang Doctor's
// "additional, separate, and lightweight thread within the app" (§3.2). The
// monitoring thread contends with the app on the shared cores, so any
// responsiveness impact becomes measurable. Call before Run.
func (h *Harness) EnableCostInjection() {
	monitor := h.Session.Sched.NewThread("monitor")
	inject := func(ns int64) {
		if ns <= 0 {
			return
		}
		monitor.Enqueue(cpu.Compute(simclock.Duration(ns), nil, nil))
	}
	for _, d := range h.Detectors {
		d.Log().Inject = inject
	}
}

// appCPUNs is the CPU consumed by the app's own threads (main + render),
// the denominator for overhead percentages.
func (h *Harness) appCPUNs() int64 {
	return h.Session.MainThread().Counters().TaskClock +
		h.Session.RenderThread().Counters().TaskClock
}

// Run executes the trace with think-time gaps, recording every execution.
func (h *Harness) Run(trace []*app.Action, think simclock.Duration) {
	for _, act := range trace {
		h.Execs = append(h.Execs, h.Session.Perform(act))
		h.Session.Idle(think)
	}
	for _, d := range h.Detectors {
		d.Detach()
	}
}

// Evaluate scores one attached detector against the recorded executions.
func (h *Harness) Evaluate(d Detector) Eval {
	return Evaluate(d.Name(), d.Log(), h.Execs)
}

// Overhead computes one detector's resource overhead over the trace run.
func (h *Harness) Overhead(d Detector) Overhead {
	return ComputeOverhead(d.Log(), h.appCPUNs()-h.appCPU0)
}
