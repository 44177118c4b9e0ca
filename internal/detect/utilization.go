package detect

import (
	"fmt"
	"math"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/simclock"
)

// UTThresholds are per-app static resource-utilization thresholds (§4.1):
// CPU is a fraction of one core used by the main thread over a sampling
// window; MemPerSec is the main thread's page-fault rate, standing in for
// "memory traffic".
type UTThresholds struct {
	CPU       float64
	MemPerSec float64
}

// CalibrateUT derives the Low and High thresholds the paper uses for the
// UT baselines from a profiling run with ground truth. It samples the main
// thread on the UT monitoring period (100 ms) exactly as the detector will,
// keeps the samples that fall inside bug-caused soft hang executions, and
// sets Low to the minimum observed utilization (so UTL catches every bug,
// at the price of flagging almost everything) and High to 90% of the peak
// (so UTH flags only the heaviest bugs).
func CalibrateUT(a *app.App, dev app.Device, seed uint64, trace []*app.Action) (low, high UTThresholds, err error) {
	s, err := app.NewSession(a, dev, seed)
	if err != nil {
		return low, high, err
	}
	const period = 100 * simclock.Millisecond
	type sample struct {
		from, to simclock.Time
		cpu, mem float64
	}
	var pending []sample // samples within the current action
	var bugSamples []sample

	lastClock := int64(0)
	lastFaults := int64(0)
	lastAt := s.Clk.Now()
	var tick func()
	tick = func() {
		now := s.Clk.Now()
		c := s.MainThread().Counters()
		window := now.Sub(lastAt)
		if window > 0 && s.Current() != nil {
			pending = append(pending, sample{
				from: lastAt, to: now,
				cpu: float64(c.TaskClock-lastClock) / float64(window),
				mem: float64(c.PageFaults()-lastFaults) / (float64(window) / float64(simclock.Second)),
			})
		}
		lastAt, lastClock, lastFaults = now, c.TaskClock, c.PageFaults()
		s.Clk.After(period, tick)
	}
	s.Clk.After(period, tick)

	for _, act := range trace {
		pending = pending[:0]
		exec := s.Perform(act)
		if exec.BugCaused(PerceivableDelay) != nil {
			// Keep only samples overlapping a hanging input event: windows
			// in the render-drain tail of the action say nothing about the
			// main thread's behaviour during the hang.
			for _, smp := range pending {
				for _, ev := range exec.Events {
					if ev.ResponseTime() > PerceivableDelay && smp.from < ev.End && smp.to > ev.Start {
						bugSamples = append(bugSamples, smp)
						break
					}
				}
			}
		}
		s.Idle(simclock.Second)
	}
	if len(bugSamples) == 0 {
		return low, high, fmt.Errorf("detect: no bug manifested while calibrating %s", a.Name)
	}
	low = UTThresholds{CPU: math.Inf(1), MemPerSec: math.Inf(1)}
	for _, smp := range bugSamples {
		low.CPU = math.Min(low.CPU, smp.cpu)
		low.MemPerSec = math.Min(low.MemPerSec, smp.mem)
		high.CPU = math.Max(high.CPU, smp.cpu)
		high.MemPerSec = math.Max(high.MemPerSec, smp.mem)
	}
	high.CPU *= 0.9
	high.MemPerSec *= 0.9
	return low, high, nil
}

// Utilization is the UT baseline (§4.1, after Pelleg et al. and Zhu et
// al.): it samples the main thread's resource utilization on a fixed period
// and suspects a soft hang bug whenever a threshold is exceeded. With
// WithTimeout set it becomes UT+TI: sampling happens only while an input
// event has already exceeded the 100 ms perceivable delay, and incidents
// require both conditions.
type Utilization struct {
	Label       string // "UTL" or "UTH"
	Thresholds  UTThresholds
	WithTimeout bool

	Period simclock.Duration

	log     Log
	session *app.Session

	ticker     simclock.Handle
	lastSample simclock.Time
	lastClock  int64
	lastFaults int64

	hangActive bool // WithTimeout: current event has passed 100 ms
	curExec    *app.ActionExec
	curRT      simclock.Duration
}

// NewUtilization builds a UT baseline. period 0 defaults to 100 ms.
func NewUtilization(label string, thr UTThresholds, withTimeout bool, period simclock.Duration) *Utilization {
	if period == 0 {
		period = 100 * simclock.Millisecond
	}
	return &Utilization{Label: label, Thresholds: thr, WithTimeout: withTimeout, Period: period}
}

// Name implements Detector.
func (u *Utilization) Name() string {
	if u.WithTimeout {
		return u.Label + "+TI"
	}
	return u.Label
}

// Log implements Detector.
func (u *Utilization) Log() *Log { return &u.log }

// Attach starts the periodic sampler (plain UT samples through the whole
// trace, which is where its overhead comes from).
func (u *Utilization) Attach(s *app.Session) {
	u.session = s
	if !u.WithTimeout {
		u.resetBaseline()
		u.armTicker()
	}
}

// Detach stops sampling.
func (u *Utilization) Detach() {
	if u.session != nil {
		u.session.Clk.Cancel(u.ticker)
	}
}

func (u *Utilization) resetBaseline() {
	c := u.session.MainThread().Counters()
	u.lastSample = u.session.Clk.Now()
	u.lastClock = c.TaskClock
	u.lastFaults = c.PageFaults()
}

func (u *Utilization) armTicker() {
	u.ticker = u.session.Clk.After(u.Period, func() {
		u.sample()
		if !u.WithTimeout || u.hangActive {
			u.armTicker()
		}
	})
}

// sample reads the main thread's utilization over the last window and
// updates the flagged state.
func (u *Utilization) sample() {
	now := u.session.Clk.Now()
	window := now.Sub(u.lastSample)
	if window <= 0 {
		return
	}
	c := u.session.MainThread().Counters()
	cpu := float64(c.TaskClock-u.lastClock) / float64(window)
	mem := float64(c.PageFaults()-u.lastFaults) / (float64(window) / 1e9)
	u.lastSample = now
	u.lastClock = c.TaskClock
	u.lastFaults = c.PageFaults()

	u.log.AddCost(CostUtilSampleNs)
	u.log.AddMem(BytesPerUtilSample)

	if u.WithTimeout && !u.hangActive {
		return
	}
	if cpu > u.Thresholds.CPU || mem > u.Thresholds.MemPerSec {
		// Suspected bug: collect stack traces for this window and commit an
		// incident. Unlike TI, a UT monitor has no action-level notion of
		// "one response time": every violating window triggers its own
		// trace burst — the mechanism behind the paper's 8-22x
		// false-positive blow-up for UTL (§4.4).
		samples := int64(u.Period / StackSamplePeriod)
		if samples < 1 {
			samples = 1
		}
		u.log.AddCost(samples * CostStackSampleNs)
		u.log.AddMem(samples * BytesPerStackSample)
		if !u.WithTimeout || u.curRT > PerceivableDelay || u.hangActive {
			u.log.Trace(TracedHang{At: u.session.Clk.Now(), Exec: u.curExec, ResponseTime: u.curRT})
		}
	}
}

// ActionStart implements app.Listener.
func (u *Utilization) ActionStart(e *app.ActionExec) {
	u.curExec = e
	u.curRT = 0
}

// EventStart arms the 100 ms watchdog in UT+TI mode.
func (u *Utilization) EventStart(e *app.ActionExec, ev *app.EventExec) {
	if !u.WithTimeout {
		return
	}
	u.log.AddCost(CostWatchdogNs)
	evRef := ev
	u.session.Clk.After(PerceivableDelay, func() {
		if !evRef.Done && u.curExec == e {
			u.hangActive = true
			u.resetBaseline()
			u.armTicker()
		}
	})
}

// EventEnd stops hang-scoped sampling in UT+TI mode.
func (u *Utilization) EventEnd(e *app.ActionExec, ev *app.EventExec) {
	if rt := ev.ResponseTime(); rt > u.curRT {
		u.curRT = rt
	}
	if u.WithTimeout && u.hangActive {
		u.hangActive = false
		u.session.Clk.Cancel(u.ticker)
	}
}

// ActionEnd implements app.Listener.
func (u *Utilization) ActionEnd(e *app.ActionExec) {
	u.curExec = nil
}
