package core

import (
	"hangdoctor/internal/android/app"
	"hangdoctor/internal/detect"
	"hangdoctor/internal/perf"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/stack"
)

// wideCollector implements the §3.3.1 periodic data-collection task that
// feeds the heavy adaptation: every Nth action execution it measures the
// full candidate-event set and samples the main thread's stack during any
// soft hang, labelling the reading with the Trace Analyzer's verdict. It is
// deliberately independent of the S-Checker/Diagnoser pipeline — it never
// touches action state — and its period bounds its overhead.
type wideCollector struct {
	doctor *Doctor

	sess     *perf.Session
	traces   []*stack.Stack
	sampler  simclock.Handle
	sampling bool
	count    int
	data     []HeavyReading
}

// onActionStart opens a wide perf session on every Nth execution.
func (w *wideCollector) onActionStart() {
	d := w.doctor
	every := d.cfg.WideCollectEvery
	if every <= 0 {
		return
	}
	w.count++
	w.traces = nil
	if w.count%every != 0 {
		return
	}
	w.sess = perf.Open(d.session.Clk, d.monitoredThreads(), CandidateEvents(), d.perfConfig())
}

// onEventStart arms the wide stack sampler behind the perceivable-delay
// watchdog, mirroring the Diagnoser's collection but into its own buffer.
func (w *wideCollector) onEventStart(ev *app.EventExec) {
	if w.sess == nil {
		return
	}
	d := w.doctor
	d.log.AddCost(detect.CostWatchdogNs)
	sessAtArm := w.sess
	d.session.Clk.After(detect.PerceivableDelay, func() {
		if !ev.Done && w.sess == sessAtArm && !w.sampling {
			w.startSampler()
		}
	})
}

func (w *wideCollector) startSampler() {
	d := w.doctor
	w.sampling = true
	var tick func()
	tick = func() {
		if !w.sampling {
			return
		}
		if st := d.session.MainThread().CurrentStack(); st != nil {
			w.traces = append(w.traces, st)
			d.log.AddCost(detect.CostStackSampleNs)
			d.log.AddMem(detect.BytesPerStackSample)
		}
		w.sampler = d.session.Clk.After(detect.StackSamplePeriod, tick)
	}
	tick()
}

func (w *wideCollector) stopSampler() {
	w.sampling = false
	w.doctor.session.Clk.Cancel(w.sampler)
}

// onActionEnd closes the session and, for hangs with enough samples,
// records a labeled HeavyReading.
func (w *wideCollector) onActionEnd(rt simclock.Duration, hang bool) {
	if w.sess == nil {
		return
	}
	d := w.doctor
	reading := w.sess.Stop()
	d.log.AddCost(w.sess.CostNs())
	w.sess = nil
	w.stopSampler()
	traces := w.traces
	w.traces = nil
	if !hang || len(traces) < d.cfg.MinTraces {
		return
	}
	diag, ok := d.analyzer.Analyze(traces, d.session.App.Registry, d.cfg.OccurrenceHigh)
	if !ok {
		return
	}
	values := map[perf.Event]int64{}
	for _, e := range CandidateEvents() {
		if d.cfg.MainThreadOnly {
			values[e] = reading.Value(0, e)
		} else {
			values[e] = reading.Diff(e)
		}
	}
	w.data = append(w.data, HeavyReading{Values: values, IsBug: !diag.IsUI})
}

// WideData returns the HeavyReadings collected by the periodic
// data-collection task (empty unless Config.WideCollectEvery is set).
func (d *Doctor) WideData() []HeavyReading { return d.wide.data }
