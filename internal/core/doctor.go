package core

import (
	"sort"
	"time"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/cpu"
	"hangdoctor/internal/detect"
	"hangdoctor/internal/perf"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/stack"
)

// detectionKey identifies a detection-table row: one root cause under one
// action. A comparable struct key, so lookups neither build a concatenated
// string per diagnosis nor rely on a separator byte never appearing in UIDs.
type detectionKey struct {
	actionUID string
	rootCause string
}

// Detection is one confirmed soft hang bug diagnosis, the unit of the
// paper's Tables 5 and 6: where it is, what S-Checker symptoms led to it,
// and how often it has been seen.
type Detection struct {
	ActionUID  string
	RootCause  string
	File       string
	Line       int
	Occurrence float64
	// Symptoms are the S-Checker conditions (indexes into Config.Conditions)
	// that flagged the action when it became Suspicious.
	Symptoms []int
	// ViaCaller marks a self-developed aggregate operation.
	ViaCaller bool
	// Chain is the causal chain the diagnosis was attributed through (zero
	// for plain main-thread diagnoses). For cross-action convoys ActionUID
	// is already the *origin* action — the chain records how the blame got
	// there.
	Chain CausalChain
	// Count is the number of soft hangs diagnosed to this root cause.
	Count   int
	FirstAt simclock.Time
	// MaxResponse is the worst response time observed for this cause.
	MaxResponse simclock.Duration
}

// Doctor is Hang Doctor: it implements detect.Detector so the evaluation
// harness can run it side by side with the baselines.
type Doctor struct {
	cfg     Config
	session *app.Session
	log     detect.Log
	report  *Report

	states      map[string]*actionRecord
	transitions []StateTransition
	detections  map[detectionKey]*Detection

	// analyzer is the Doctor's Trace Analyzer with its reusable dense
	// scratch; the Diagnoser and the wide collector share it (both run on
	// the Doctor's listener callbacks, never concurrently).
	analyzer TraceAnalyzer
	// causal wraps analyzer with causal-chain attribution; it runs instead
	// of the plain analyzer whenever the attached app has pool workers and
	// Config.NoCausal is off.
	causal *CausalAnalyzer

	// condEvents is cfg.conditionEvents() computed once at construction; the
	// S-Checker opens a perf session per action execution and the event list
	// never changes after New.
	condEvents []perf.Event
	// valScratch backs sCheck's per-condition value vector between hangs; a
	// copy is taken before anything retains it (adaptSet).
	valScratch []int64

	// Per-action-execution state.
	perfSess    *perf.Session
	earlyRead   *perf.Reading
	earlyTimer  simclock.Handle
	retryTimer  simclock.Handle
	curRec      *actionRecord
	curExec     *app.ActionExec
	curTraces   []*stack.Stack
	curTagged   []stack.Tagged
	curMain     int
	curDropped  int
	openFailed  bool
	sampler     simclock.Handle
	sampling    bool
	adaptSet    []LabeledReading
	deviceLabel string
	wide        wideCollector
	telemetry   *Telemetry
	health      Health

	// metrics is the per-Doctor obs registry; execsSeen/hangsSeen back its
	// action counters (plain ints: the Doctor runs on one sim goroutine),
	// samplerStart anchors the stack-collection-duration histogram.
	metrics      *doctorMetrics
	execsSeen    int64
	hangsSeen    int64
	samplerStart simclock.Time
}

// New builds a Doctor with the given configuration.
func New(cfg Config) *Doctor {
	d := &Doctor{
		cfg:        cfg.withDefaults(),
		states:     map[string]*actionRecord{},
		detections: map[detectionKey]*Detection{},
		report:     NewReport(),
	}
	d.wide.doctor = d
	d.causal = NewCausalAnalyzer(&d.analyzer)
	d.condEvents = d.cfg.conditionEvents()
	d.metrics = newDoctorMetrics(d)
	return d
}

// Name implements detect.Detector.
func (d *Doctor) Name() string { return "HD" }

// Log implements detect.Detector.
func (d *Doctor) Log() *detect.Log { return &d.log }

// Report returns the Hang Bug Report accumulated so far, stamped with the
// current degraded-operation health so uploads carry it.
func (d *Doctor) Report() *Report {
	d.report.Health = d.health
	return d.report
}

// Health returns the degraded-operation summary: what the measurement plane
// lost so far and how the Doctor compensated. It is all zeros on a perfect
// plane.
func (d *Doctor) Health() Health { return d.health }

// Attach implements detect.Detector.
func (d *Doctor) Attach(s *app.Session) {
	d.session = s
	d.deviceLabel = s.Device.Name
}

// Detach implements detect.Detector. It may be called mid-action (app
// shutdown, detector swap), so it must release the whole measurement plane:
// the open perf session is stopped with its read cost charged, pending
// timers are cancelled, and per-execution state is cleared so a later
// re-attach starts clean instead of inheriting a dangling execution.
func (d *Doctor) Detach() {
	if d.session == nil {
		return // never attached: nothing is armed or open
	}
	d.stopSampler()
	d.wide.stopSampler()
	d.session.Clk.Cancel(d.earlyTimer)
	d.session.Clk.Cancel(d.retryTimer)
	if d.perfSess != nil {
		d.perfSess.Stop()
		d.log.AddCost(d.perfSess.CostNs())
		d.perfSess = nil
	}
	d.earlyRead = nil
	d.curRec = nil
	d.curExec = nil
	d.curTraces = nil
	d.curTagged = nil
	d.curMain = 0
	d.curDropped = 0
	d.openFailed = false
}

// State returns an action's current state (Uncategorized if never seen).
func (d *Doctor) State(uid string) ActionState {
	if r, ok := d.states[uid]; ok {
		return r.state
	}
	return Uncategorized
}

// Transitions returns the audit log of state changes.
func (d *Doctor) Transitions() []StateTransition { return d.transitions }

// Detections returns all confirmed diagnoses, most frequent first.
func (d *Doctor) Detections() []*Detection {
	out := make([]*Detection, 0, len(d.detections))
	for _, det := range d.detections {
		out = append(out, det)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].ActionUID != out[j].ActionUID {
			return out[i].ActionUID < out[j].ActionUID
		}
		return out[i].RootCause < out[j].RootCause
	})
	return out
}

// AdaptationData returns the labeled readings recorded for the filter
// adaptation extension (empty unless Config.CollectAdaptation).
func (d *Doctor) AdaptationData() []LabeledReading { return d.adaptSet }

// record fetches or creates the look-up-table row for an action.
func (d *Doctor) record(uid string) *actionRecord {
	r, ok := d.states[uid]
	if !ok {
		r = &actionRecord{uid: uid, state: Uncategorized}
		d.states[uid] = r
	}
	return r
}

func (d *Doctor) logTransition(r *actionRecord, to ActionState, phase string, seq int) {
	d.logTransitionConf(r, to, phase, seq, false)
}

func (d *Doctor) logTransitionConf(r *actionRecord, to ActionState, phase string, seq int, lowConf bool) {
	d.transitions = append(d.transitions, StateTransition{
		ActionUID: r.uid, From: r.state, To: to, Phase: phase, ExecSeq: seq,
		LowConfidence: lowConf,
	})
	r.transition(to)
}

// ActionStart implements app.Listener: look up the action's state and start
// whatever monitoring that state requires.
func (d *Doctor) ActionStart(e *app.ActionExec) {
	r := d.record(e.Action.UID)
	d.curRec = r
	d.curExec = e
	r.execs++
	d.curTraces = d.curTraces[:0] // reuse the backing arrays across executions
	d.curTagged = d.curTagged[:0]
	d.curMain = 0
	d.curDropped = 0
	d.openFailed = false
	d.earlyRead = nil
	d.wide.onActionStart()

	if r.state == Normal {
		r.sinceNormal++
		if d.cfg.ResetEvery > 0 && r.sinceNormal >= d.cfg.ResetEvery {
			// Periodic reset: occasionally-manifesting bugs get re-checked.
			d.logTransition(r, Uncategorized, "Reset", e.Seq)
		}
	}
	if r.state == Uncategorized && !d.cfg.Phase2Only {
		if r.quarantineLeft > 0 {
			// The action's measurement plane kept failing; skip monitoring
			// for a while instead of paying open costs for nothing. The
			// S-Checker defers judgement meanwhile.
			r.quarantineLeft--
		} else {
			// S-Checker monitors the three performance events on main and
			// render threads for the whole action window.
			d.openPerf(r, e, 0)
		}
		if d.cfg.EarlyRead > 0 {
			d.earlyTimer = d.session.Clk.After(d.cfg.EarlyRead, func() {
				if d.perfSess != nil {
					rd := d.perfSess.Stop()
					d.earlyRead = &rd
					d.log.AddCost(d.perfSess.CostNs())
					d.perfSess = nil
				}
			})
		}
	}
}

// openPerf opens the S-Checker's perf session, retrying failed opens with
// bounded exponential backoff while the same execution is still running.
func (d *Doctor) openPerf(r *actionRecord, e *app.ActionExec, attempt int) {
	cfg := d.perfConfig()
	cfg.Faults = d.session.Faults()
	sess, err := perf.TryOpen(d.session.Clk, d.monitoredThreads(), d.condEvents, cfg)
	if err != nil {
		// A failed perf_event_open still costs the syscall round trip.
		d.log.AddCost(perf.CostOpenNs)
		d.health.PerfOpenFailures++
		if attempt < perfOpenRetries {
			d.health.PerfOpenRetries++
			backoff := d.cfg.PerfRetryBackoff << attempt
			d.retryTimer = d.session.Clk.After(backoff, func() {
				if d.curExec == e && d.perfSess == nil && d.earlyRead == nil {
					d.openPerf(r, e, attempt+1)
				}
			})
		} else {
			d.openFailed = true
		}
		return
	}
	d.perfSess = sess
}

// perfConfig is the session's perf configuration stamped with the
// Doctor's metrics sink; the S-Checker additionally stamps the fault
// plane (the wide collector deliberately measures an unfaulted plane, so
// its readings stay comparable across chaos sweeps).
func (d *Doctor) perfConfig() perf.Config {
	cfg := d.session.PerfConfig()
	cfg.Metrics = d.metrics.perf
	return cfg
}

// causalActive reports whether causal async diagnosis is in effect: the
// attached app has pool workers and the ablation knob is off. Apps without
// async ops run the original pipeline untouched.
func (d *Doctor) causalActive() bool {
	return !d.cfg.NoCausal && d.session != nil && len(d.session.WorkerThreads()) > 0
}

func (d *Doctor) monitoredThreads() []*cpu.Thread {
	if d.cfg.MainThreadOnly {
		return []*cpu.Thread{d.session.MainThread()}
	}
	threads := []*cpu.Thread{d.session.MainThread(), d.session.RenderThread()}
	if d.causalActive() {
		// Pool workers are scheduled entities on the app side of the
		// main-minus-render difference: an await hang burns its CPU there,
		// and without their counters the S-Checker would see an idle main
		// thread and never flag the action.
		threads = append(threads, d.session.WorkerThreads()...)
	}
	return threads
}

// EventStart arms the Diagnoser's watchdog when the action state calls for
// deep analysis (Suspicious or HangBug), or in Phase2Only mode for every
// action.
func (d *Doctor) EventStart(e *app.ActionExec, ev *app.EventExec) {
	r := d.curRec
	if r == nil {
		return
	}
	d.wide.onEventStart(ev)
	diagnose := r.state == Suspicious || r.state == HangBug || d.cfg.Phase2Only
	if !diagnose || d.cfg.Phase1Only {
		return
	}
	d.log.AddCost(detect.CostWatchdogNs)
	evRef := ev
	d.session.Clk.After(detect.PerceivableDelay, func() {
		if !evRef.Done && d.curRec == r {
			d.startSampler()
		}
	})
}

// startSampler begins periodic main-thread stack collection (the Trace
// Collector) until the current event ends.
func (d *Doctor) startSampler() {
	if d.sampling {
		return
	}
	d.sampling = true
	d.samplerStart = d.session.Clk.Now()
	var tick func()
	tick = func() {
		if !d.sampling {
			return
		}
		if d.causalActive() {
			// Causal mode dumps the main thread plus every busy pool worker,
			// each sample tagged with the provenance of the work its thread
			// was executing.
			before := len(d.curTagged)
			var missed bool
			var truncated, lost int
			d.curTagged, missed, truncated, lost = d.session.SampleTagged(d.curTagged)
			if missed {
				d.curDropped++
				d.health.StacksDropped++
			}
			d.health.StacksTruncated += truncated
			d.health.WorkerStacksLost += lost
			for i := before; i < len(d.curTagged); i++ {
				if !d.curTagged[i].Worker {
					d.curMain++
				}
				d.log.AddCost(detect.CostStackSampleNs)
				d.log.AddMem(detect.BytesPerStackSample)
			}
		} else {
			st, missed, truncated := d.session.SampleMainStack()
			if missed {
				d.curDropped++
				d.health.StacksDropped++
			}
			if truncated {
				d.health.StacksTruncated++
			}
			if st != nil {
				d.curTraces = append(d.curTraces, st)
				d.log.AddCost(detect.CostStackSampleNs)
				d.log.AddMem(detect.BytesPerStackSample)
			}
		}
		period := detect.StackSamplePeriod
		if extra, ok := d.session.Faults().OverrunExtra(period); ok {
			period += extra
			d.health.SamplerOverruns++
		}
		d.sampler = d.session.Clk.After(period, tick)
	}
	tick()
}

func (d *Doctor) stopSampler() {
	if d.sampling && len(d.curTraces)+len(d.curTagged) > 0 {
		// The burst collected at least one sample, main-thread or, in
		// causal mode, tagged: record how long the Trace Collector ran
		// (simulated time — the span the app hung under observation).
		elapsed := d.session.Clk.Now().Sub(d.samplerStart)
		d.metrics.stackCollectMs.Observe(elapsed.Milliseconds())
	}
	d.sampling = false
	d.session.Clk.Cancel(d.sampler)
}

// EventEnd stops trace collection at the end of a hanging event.
func (d *Doctor) EventEnd(e *app.ActionExec, ev *app.EventExec) {
	d.stopSampler()
	d.wide.stopSampler()
}

// ActionEnd runs the phase appropriate to the action's state: the S-Checker
// filter for Uncategorized actions, the Trace Analyzer for diagnosed ones.
func (d *Doctor) ActionEnd(e *app.ActionExec) {
	r := d.curRec
	d.curRec = nil
	d.curExec = nil
	if r == nil {
		return
	}
	d.session.Clk.Cancel(d.earlyTimer)
	if d.session.Clk.Pending(d.retryTimer) {
		// The action ended while an open retry was still backing off: every
		// attempt this execution made has failed, and no further one can run
		// inside its window. Count the execution as an open failure now —
		// otherwise actions shorter than the backoff never accumulate
		// consecutive failures and quarantine never engages — and cancel the
		// stale callback so it cannot fire into a later execution.
		d.session.Clk.Cancel(d.retryTimer)
		d.openFailed = true
	}
	rt := e.ResponseTime()
	hang := rt > detect.PerceivableDelay
	d.execsSeen++
	if hang {
		d.hangsSeen++
		d.metrics.hangResponseMs.Observe(rt.Milliseconds())
	}
	d.Telemetry().Record(r.uid, rt)
	d.wide.onActionEnd(rt, hang)

	switch {
	case r.state == Uncategorized && !d.cfg.Phase2Only:
		start := time.Now()
		d.sCheck(r, e, rt, hang)
		d.metrics.scheckLatencyNs.Observe(float64(time.Since(start)))
	case r.state == Suspicious && d.cfg.Phase1Only:
		// Phase-1-only ablation: without a Diagnoser, every further hang of
		// a flagged action is reported unconfirmed.
		if hang {
			d.log.Trace(detect.TracedHang{At: e.End, Exec: e, ResponseTime: rt, RootCauseIsBug: true})
		}
	case (r.state == Suspicious || r.state == HangBug || d.cfg.Phase2Only) && !d.cfg.Phase1Only:
		d.diagnose(r, e, rt, hang)
	}
}

// sCheck is the first phase: read the counters, compare against the
// symptom thresholds, and route the action (Figure 3 paths A/B/C start).
// When the measurement plane degrades — no session could be opened, the
// render thread was lost, or counters dropped out mid-window — it judges
// only from what survived, widening margins and marking the verdict
// low-confidence, and defers entirely rather than guess from nothing.
func (d *Doctor) sCheck(r *actionRecord, e *app.ActionExec, rt simclock.Duration, hang bool) {
	var reading perf.Reading
	switch {
	case d.earlyRead != nil:
		reading = *d.earlyRead
		d.earlyRead = nil
	case d.perfSess != nil:
		reading = d.perfSess.Stop()
		d.log.AddCost(d.perfSess.CostNs())
		d.perfSess = nil
	default:
		// No reading at all: every open attempt failed, or the action is
		// quarantined. Never judge without data.
		if d.openFailed {
			r.consecOpenFails++
			if r.consecOpenFails >= quarantineAfter {
				r.consecOpenFails = 0
				r.quarantineLeft = quarantineExecs
				d.health.Quarantines++
			}
		}
		if hang {
			d.health.VerdictsDeferred++
		}
		return
	}
	r.consecOpenFails = 0
	if !hang {
		// No soft hang: stay Uncategorized, keep watching.
		return
	}
	mainOnly := d.cfg.MainThreadOnly
	degraded := false
	if !mainOnly && len(reading.PerThread) < 2 {
		// Render-thread counters were unavailable: fall back to main-only
		// thresholds with wider margins; the verdict is low-confidence.
		mainOnly, degraded = true, true
		d.health.RenderLost++
	}
	var fired []int
	evaluated := 0
	lowConf := degraded
	// Reuse the scratch vector across hangs; zero it because multiplexed-away
	// conditions skip their slot and must not read a stale value.
	if cap(d.valScratch) < len(d.cfg.Conditions) {
		d.valScratch = make([]int64, len(d.cfg.Conditions))
	}
	values := d.valScratch[:len(d.cfg.Conditions)]
	for i := range values {
		values[i] = 0
	}
	for i, cond := range d.cfg.Conditions {
		var v int64
		var ok bool
		if mainOnly {
			v, ok = reading.ValueOK(0, cond.Event)
		} else {
			v, ok = reading.DiffOK(cond.Event)
			// Pool workers (threads 2+, present only in causal mode) sit on
			// the app side of the difference: an await hang burns its CPU
			// there while the parked main thread looks idle. A worker counter
			// lost mid-window contributes zero rather than spoiling the
			// main-render difference that survived.
			for t := 2; ok && t < len(reading.PerThread); t++ {
				if wv, wok := reading.ValueOK(t, cond.Event); wok {
					v += wv
				}
			}
		}
		if !ok {
			// This condition's counter was multiplexed away; skip it.
			d.health.CountersLost++
			lowConf = true
			continue
		}
		evaluated++
		values[i] = v
		thr := cond.Threshold
		if degraded {
			thr = degradedThreshold(cond)
		}
		if v > thr {
			fired = append(fired, i)
		}
	}
	if evaluated == 0 {
		// Every counter of the window was lost; defer the verdict.
		d.health.VerdictsDeferred++
		return
	}
	if d.cfg.CollectAdaptation && !lowConf {
		// Degraded readings are excluded: their values are not comparable
		// with difference-mode thresholds and would skew adaptation.
		d.adaptSet = append(d.adaptSet, LabeledReading{
			ActionUID: r.uid, Values: append([]int64(nil), values...),
			IsBug: e.BugCaused(detect.PerceivableDelay) != nil,
		})
	}
	if lowConf {
		d.health.LowConfidence++
	}
	if len(fired) > 0 {
		r.lastSymptoms = fired
		d.logTransitionConf(r, Suspicious, "S-Checker", e.Seq, lowConf)
		if d.cfg.Phase1Only {
			// Ablation: no confirmation pass; report straight away.
			d.log.Trace(detect.TracedHang{At: e.End, Exec: e, ResponseTime: rt, RootCauseIsBug: true})
		}
	} else {
		d.logTransitionConf(r, Normal, "S-Checker", e.Seq, lowConf)
	}
}

// diagnose is the second phase: analyze the traces collected during this
// execution's soft hang and settle the action's state (Figure 3 paths B/C).
// In causal mode the samples are the tagged main+worker dump and the analysis
// can re-attribute an await-parked hang to the asynchronous chain that caused
// it; otherwise it is the paper's plain main-thread occurrence-factor pass.
func (d *Doctor) diagnose(r *actionRecord, e *app.ActionExec, rt simclock.Duration, hang bool) {
	causal := d.causalActive()
	traces := d.curTraces
	tagged := d.curTagged
	dropped := d.curDropped
	// collected counts only main-thread dumps either way: MinTraces guards
	// the occurrence factors of the *hanging dispatch*, and worker samples
	// must not let a barely-sampled hang clear it.
	collected := len(traces)
	if causal {
		collected = d.curMain
	}
	// The analyzers copy what they keep (frame values), so the slice backings
	// can be reused by the next execution's sampler.
	d.curTraces = traces[:0]
	d.curTagged = tagged[:0]
	d.curMain = 0
	d.curDropped = 0
	if !hang || collected < d.cfg.MinTraces {
		// The bug did not manifest this time (or the hang was too short to
		// sample meaningfully); keep the action's state so the next soft
		// hang is traced (§3.2 path discussion).
		if hang && dropped > 0 {
			// Samples were lost to the measurement plane, not absent from
			// the hang: the Suspicious → HangBug/Normal decision is
			// deferred rather than rendered from too little data.
			d.health.VerdictsDeferred++
		}
		return
	}
	var diag Diagnosis
	var chain CausalChain
	var fallback, ok bool
	if causal {
		diag, chain, fallback, ok = d.causal.Analyze(tagged, d.session.App.Registry, d.cfg.OccurrenceHigh)
	} else {
		diag, ok = d.analyzer.Analyze(traces, d.session.App.Registry, d.cfg.OccurrenceHigh)
	}
	if !ok {
		return
	}
	if fallback {
		// The main thread was demonstrably parked on asynchronous work, but
		// no worker sample survived to attribute it; the verdict degrades to
		// the main-thread-only await attribution.
		d.health.CausalFallbacks++
	}
	// Enough samples survived to judge, but a partial set (or truncated
	// frames, or a failed chain attribution) still lowers confidence in the
	// occurrence factors.
	lowConf := dropped > 0 || fallback
	if lowConf {
		d.health.LowConfidence++
	}
	d.log.Trace(detect.TracedHang{
		At: e.End, Exec: e, ResponseTime: rt,
		RootCause: diag.RootCause, RootCauseIsBug: !diag.IsUI,
	})
	if diag.IsUI {
		if r.state == Suspicious || r.state == Uncategorized {
			d.logTransitionConf(r, Normal, "Diagnoser", e.Seq, lowConf)
		}
		return
	}
	if r.state == Normal {
		// Phase2Only ablation: a Normal action is still being diagnosed;
		// re-open it before confirming.
		d.logTransitionConf(r, Uncategorized, "Diagnoser", e.Seq, lowConf)
	}
	if r.state == Uncategorized {
		// Phase2Only ablation: no S-Checker ran, so step through Suspicious
		// to keep the audit trail on Figure 3's edges.
		d.logTransitionConf(r, Suspicious, "Diagnoser", e.Seq, lowConf)
	}
	if r.state != HangBug {
		d.logTransitionConf(r, HangBug, "Diagnoser", e.Seq, lowConf)
	}
	d.recordDetection(r, e, rt, diag, chain)
}

// recordDetection updates the detection table, the Hang Bug Report, and the
// known-blocking database. A chain carrying an origin action re-attributes
// the detection row to that action (a cross-action convoy is the *origin's*
// bug — the hanging action was merely queued behind it); the chain itself is
// kept on the row so the report shows how the blame travelled.
func (d *Doctor) recordDetection(r *actionRecord, e *app.ActionExec, rt simclock.Duration, diag Diagnosis, chain CausalChain) {
	uid := r.uid
	if chain.OriginAction != "" {
		uid = chain.OriginAction
	}
	key := detectionKey{actionUID: uid, rootCause: diag.RootCause}
	det, ok := d.detections[key]
	if !ok {
		det = &Detection{
			ActionUID: uid, RootCause: diag.RootCause,
			File: diag.File, Line: diag.Line,
			Occurrence: diag.Occurrence,
			ViaCaller:  diag.ViaCaller,
			FirstAt:    e.End,
		}
		d.detections[key] = det
	}
	// Symptoms track the latest S-Checker firing, not the first: after a
	// periodic reset re-flags the action, the re-detection may rest on a
	// different condition set than the original one (Table 6 data).
	det.Symptoms = append([]int(nil), r.lastSymptoms...)
	det.Count++
	det.Chain = mergeChain(det.Chain, chain)
	if rt > det.MaxResponse {
		det.MaxResponse = rt
	}
	foldStart := time.Now()
	d.report.AddChained(d.session.App.Name, d.deviceLabel, uid, diag, chain, rt)
	d.metrics.reportFoldNs.Observe(float64(time.Since(foldStart)))
	// Feedback loop: a diagnosed blocking *API* extends the offline tools'
	// database; self-developed operations are only reported to the
	// developer (§3.1). The diagnosis carries the root cause's symbol ID,
	// so the API lookup is a dense index instead of a map probe.
	if a, isAPI := d.session.App.Registry.APIBySym(diag.Sym); isAPI {
		d.session.App.Registry.AddKnownBlocking(a.Key())
	}
}
