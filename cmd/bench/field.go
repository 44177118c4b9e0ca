package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/core"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/obs"
	"hangdoctor/internal/simclock"
)

// fieldParams sizes the field workload: closed-loop device drivers, each
// running sessions back to back on its half of the roster.
type fieldParams struct {
	sessions int // per driver
	actions  int // per session
	pause    time.Duration
}

const (
	fieldDrivers = 2
	fieldRoster  = 64
)

// rosterDevice is one phone of the field roster: an app from the driver's
// private corpus on one of the paper's three device profiles.
type rosterDevice struct {
	*device
	index int
	app   *app.App
	prof  app.Device
}

// doctorShim is the timing app.Listener the Doctor is attached through:
// the wall time inside each callback is the monitor's own cost.
type doctorShim struct {
	d   *core.Doctor
	acc *shimAcc
}

type shimAcc struct {
	start, event, end, diagnose     time.Duration
	nStart, nEvent, nEnd, nDiagnose int64
}

func (s doctorShim) ActionStart(e *app.ActionExec) {
	t := time.Now()
	s.d.ActionStart(e)
	s.acc.start += time.Since(t)
	s.acc.nStart++
}

func (s doctorShim) EventStart(e *app.ActionExec, ev *app.EventExec) {
	t := time.Now()
	s.d.EventStart(e, ev)
	s.acc.event += time.Since(t)
	s.acc.nEvent++
}

func (s doctorShim) EventEnd(e *app.ActionExec, ev *app.EventExec) {
	t := time.Now()
	s.d.EventEnd(e, ev)
	s.acc.event += time.Since(t)
	s.acc.nEvent++
}

// ActionEnd splits executions the Diagnoser analyzes (the action was
// Suspicious or HangBug) from the rest (the S-Checker path).
func (s doctorShim) ActionEnd(e *app.ActionExec) {
	st := s.d.State(e.Action.UID)
	t := time.Now()
	s.d.ActionEnd(e)
	d := time.Since(t)
	if st == core.Suspicious || st == core.HangBug {
		s.acc.diagnose += d
		s.acc.nDiagnose++
		return
	}
	s.acc.end += d
	s.acc.nEnd++
}

// fieldDriver is one closed-loop load generator with everything it owns.
type fieldDriver struct {
	devs    []*rosterDevice
	snd     *sender
	acc     shimAcc
	perform time.Duration
	actions int64
	recs    []uploadRec
	all     []*core.Report // every acked report, for the gate

	// Traced runs only: the Doctors' registries and detection counts.
	doctors    obs.Snapshot
	detections int64
}

type fieldEnv struct {
	c       *cluster
	drivers []*fieldDriver
	cur     atomic.Int64
}

func setupField(seed int64, dir string, tr *tracer, clk *clock) (*fieldEnv, error) {
	env := &fieldEnv{}
	c, err := openCluster(dir, tr, clk, &env.cur)
	if err != nil {
		return nil, err
	}
	env.c = c
	profiles := []func() app.Device{app.LGV10, app.Nexus5, app.GalaxyS3}
	for k := 0; k < fieldDrivers; k++ {
		// A private corpus per driver: the Doctor's known-blocking
		// feedback mutates the shared API registry.
		cp := corpus.Build()
		apps := append(append([]*app.App{}, cp.Table5...), cp.Async...)
		drv := &fieldDriver{snd: newSender(c, clk, tr, k, seed)}
		for i := k; i < fieldRoster; i += fieldDrivers {
			prof := profiles[i%len(profiles)]()
			prof.Name = fmt.Sprintf("dev-%02d", i)
			drv.devs = append(drv.devs, &rosterDevice{device: newDevice(c, prof.Name), index: i,
				app: apps[i%len(apps)], prof: prof})
		}
		env.drivers = append(env.drivers, drv)
	}
	if _, ok := c.pollRegion(); !ok {
		c.close()
		return nil, fmt.Errorf("field: initial poll failed")
	}
	return env, nil
}

func runField(p fieldParams, o runOpts) (*result, error) {
	res := newResult("field", o.tr != nil)
	clk := newClock()
	env, err := repeatSetup(res, func() (*fieldEnv, error) { return setupField(o.seed, o.dir, o.tr, clk) },
		func(e *fieldEnv) { e.c.close() })
	if err != nil {
		return nil, err
	}
	defer env.c.close()

	before := env.c.registry()
	ph := beginPhase(clk, o.tr)
	pl := startPoller(clk, o.tr, p.pause, env.c, &env.cur)
	var wg sync.WaitGroup
	for k, drv := range env.drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drv.run(p, o, k, clk)
		}()
	}
	wg.Wait()
	ph.end(res, int64(fieldDrivers*p.sessions*p.actions), clk.now())
	final := pl.stop()
	after := env.c.registry()

	var recs []uploadRec
	var acked []*core.Report
	var acc shimAcc
	var perform time.Duration
	var actions, detections int64
	var doctors obs.Snapshot
	for _, drv := range env.drivers {
		recs = append(recs, drv.recs...)
		acked = append(acked, drv.all...)
		acc.add(drv.acc)
		perform += drv.perform
		actions += drv.actions
		detections += drv.detections
		doctors = obs.MergeSnapshots(doctors, drv.doctors)
		drv.snd.addTo(res)
	}
	if err := measurePath(res, recs, pl, o.tr); err != nil {
		return nil, err
	}
	monitor := acc.start + acc.event + acc.end + acc.diagnose
	res.set("monitor_us_per_action", perUnit(monitor, actions, time.Microsecond))
	res.set("app.perform_us", perUnit(perform-monitor, actions, time.Microsecond))
	res.set("doctor.overhead_pct", 100*ratio(float64(monitor), float64(perform-monitor)))
	res.set("doctor.diagnose_pct", 100*ratio(float64(acc.diagnose), float64(monitor)))
	res.set("app.actions", float64(actions))
	res.setN("doctor.action_start_us", perUnit(acc.start, acc.nStart, time.Microsecond), int(acc.nStart))
	res.setN("doctor.event_us", perUnit(acc.event, acc.nEvent, time.Microsecond), int(acc.nEvent))
	res.setN("doctor.action_end_us", perUnit(acc.end, acc.nEnd, time.Microsecond), int(acc.nEnd))
	res.setN("doctor.diagnose_us", perUnit(acc.diagnose, acc.nDiagnose, time.Microsecond), int(acc.nDiagnose))
	if o.tr != nil {
		scheck := doctors.Histogram("hangdoctor_scheck_latency_ns")
		res.setN("doctor.scheck_ns.p50", scheck.Quantile(0.5), int(scheck.Count))
		fold := doctors.Histogram("hangdoctor_report_fold_ns")
		res.setN("doctor.report_fold_ns.p50", fold.Quantile(0.5), int(fold.Count))
		res.set("doctor.hangs", float64(doctors.Value("hangdoctor_hangs_total")))
		res.set("doctor.detections", float64(detections))
		res.set("doctor.causal_fallbacks", float64(doctors.Value("hangdoctor_health_causal_fallbacks_total")))
	}
	res.set("fleet.queue_depth_max", float64(pl.queueMax))
	fleetLayers(res, before, after, len(acked))
	finishHTTP(res, recs, pl, final, acked)
	for _, drv := range env.drivers {
		drv.recs, drv.all = nil, nil
	}
	recordLiveHeap(res)
	return res, nil
}

func (a *shimAcc) add(o shimAcc) {
	a.start += o.start
	a.event += o.event
	a.end += o.end
	a.diagnose += o.diagnose
	a.nStart += o.nStart
	a.nEvent += o.nEvent
	a.nEnd += o.nEnd
	a.nDiagnose += o.nDiagnose
}

// run executes the driver's sessions back to back. Session j runs on
// roster device j mod 32 of the driver's half with a seed derived from
// the workload seed, the device and j; a non-empty Hang Bug Report is
// uploaded as soon as the session ends.
func (drv *fieldDriver) run(p fieldParams, o runOpts, k int, clk *clock) {
	for j := 0; j < p.sessions; j++ {
		rd := drv.devs[j%len(drv.devs)]
		devSeed := mix(uint64(o.seed), uint64(rd.index), uint64(j))
		sess, err := app.NewSession(rd.app, rd.prof, devSeed)
		if err != nil {
			panic(err) // the roster's profiles all have cores
		}
		d := core.New(core.Config{})
		d.Attach(sess)
		shim := doctorShim{d: d, acc: &drv.acc}
		sess.AddListener(shim)
		start := clk.now()
		for _, act := range corpus.Trace(rd.app, devSeed, p.actions) {
			t := time.Now()
			sess.Perform(act)
			sess.Idle(simclock.Second)
			drv.perform += time.Since(t)
		}
		drv.actions += int64(p.actions)
		rep := d.Report()
		ready := clk.now()
		id := int64(j*fieldDrivers + k)
		o.tr.add(span{name: "session", lane: laneDriver + k, start: start, end: ready, upload: id, parent: -1})
		if o.tr != nil {
			drv.doctors = obs.MergeSnapshots(drv.doctors, d.Metrics())
			drv.detections += int64(len(d.Detections()))
		}
		if rep.Len() == 0 {
			continue
		}
		rec := drv.snd.send(rd.device, rep, id, ready)
		drv.recs = append(drv.recs, rec)
		if rec.ok {
			drv.all = append(drv.all, rep)
		}
	}
}
