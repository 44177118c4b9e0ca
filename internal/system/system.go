// Package system implements the paper's stated future work (§3.5): Hang
// Doctor "generalized and integrated into the OS as a more general framework
// that improves the currently used ANR tool". It models a whole device —
// several installed apps sharing one simulated kernel — with an OS-level
// HangService that attaches a Hang Doctor instance to every app, tracks the
// foreground app's soft hangs, records stock-Android ANR events (the 5 s
// dialog) for comparison, and aggregates the per-app Hang Bug Reports into
// one device-wide view.
//
// Background apps are first-class here: their periodic sync jobs run on the
// shared scheduler and preempt the foreground app's threads, replacing the
// synthetic interference threads a single-app session uses.
package system

import (
	"fmt"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/core"
	"hangdoctor/internal/cpu"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

// Process is one installed app: its session on the shared kernel plus its
// background-sync worker.
type Process struct {
	App     *app.App
	Session *app.Session

	dev      *Device
	worker   *cpu.Thread
	bgActive bool
	rng      *simrand.Rand
}

// Foreground reports whether this process currently owns the screen.
func (p *Process) Foreground() bool { return p.dev.foreground == p }

// startBackground arms the periodic sync loop on the worker thread.
func (p *Process) startBackground() {
	if p.bgActive {
		return
	}
	p.bgActive = true
	if p.worker.QueueLen() == 0 {
		p.worker.Enqueue(cpu.Block(simclock.Duration(p.rng.Jitter(float64(p.dev.SyncGap), 0.4)), nil))
	}
}

// stopBackground lets the current sync burst finish and then parks the
// worker (the OnIdle hook checks bgActive).
func (p *Process) stopBackground() { p.bgActive = false }

// Device is a simulated phone running multiple apps on one kernel.
type Device struct {
	Model app.Device
	Clk   *simclock.Clock
	Sched *cpu.Scheduler

	// SyncGap and SyncBurst shape background apps' periodic work.
	SyncGap   simclock.Duration
	SyncBurst simclock.Duration

	procs      []*Process
	foreground *Process
	svc        *HangService
	rng        *simrand.Rand
}

// NewDevice boots a device. The model's per-session interference threads
// are disabled: on a multi-app device, contention comes from the other
// installed apps.
func NewDevice(model app.Device, seed uint64) (*Device, error) {
	if model.Cores <= 0 {
		return nil, fmt.Errorf("system: device model %q has no cores", model.Name)
	}
	model.BGThreads = 0
	clk := simclock.New()
	return &Device{
		Model:     model,
		Clk:       clk,
		Sched:     cpu.New(clk, model.Cores),
		SyncGap:   9 * simclock.Millisecond,
		SyncBurst: 6 * simclock.Millisecond,
		rng:       simrand.New(seed).Derive("device/" + model.Name),
	}, nil
}

// Install adds an app to the device. The first installed app starts in the
// foreground; the rest run in the background.
func (d *Device) Install(a *app.App) (*Process, error) {
	for _, p := range d.procs {
		if p.App.Name == a.Name {
			return nil, fmt.Errorf("system: %s already installed", a.Name)
		}
	}
	sess, err := app.NewSessionOn(d.Clk, d.Sched, a, d.Model, d.rng.Derive("proc/"+a.Name))
	if err != nil {
		return nil, err
	}
	p := &Process{
		App:     a,
		Session: sess,
		dev:     d,
		worker:  d.Sched.NewThread("sync:" + a.Name),
		rng:     d.rng.Derive("sync/" + a.Name),
	}
	p.worker.SetOnIdle(func() {
		if !p.bgActive {
			return
		}
		p.worker.Enqueue(
			cpu.Block(simclock.Duration(p.rng.Jitter(float64(d.SyncGap), 0.4)), nil),
			cpu.Compute(simclock.Duration(p.rng.Jitter(float64(d.SyncBurst), 0.4)), nil, nil),
		)
	})
	d.procs = append(d.procs, p)
	if d.foreground == nil {
		d.foreground = p
	} else {
		p.startBackground()
	}
	if d.svc != nil {
		d.svc.attach(p)
	}
	return p, nil
}

// Processes returns the installed processes in install order.
func (d *Device) Processes() []*Process { return d.procs }

// Foreground returns the process owning the screen.
func (d *Device) Foreground() *Process { return d.foreground }

// SwitchTo brings p to the foreground; the previous foreground app moves to
// the background and resumes its sync jobs.
func (d *Device) SwitchTo(p *Process) error {
	if p.dev != d {
		return fmt.Errorf("system: process %s not on this device", p.App.Name)
	}
	if d.foreground == p {
		return nil
	}
	if d.foreground != nil {
		d.foreground.startBackground()
	}
	p.stopBackground()
	d.foreground = p
	return nil
}

// Perform executes a user action on the foreground app.
func (d *Device) Perform(actionName string) (*app.ActionExec, error) {
	if d.foreground == nil {
		return nil, fmt.Errorf("system: no foreground app")
	}
	act, ok := d.foreground.App.Action(actionName)
	if !ok {
		return nil, fmt.Errorf("system: %s has no action %q", d.foreground.App.Name, actionName)
	}
	return d.foreground.Session.Perform(act), nil
}

// Idle advances device time (screen off, user reading, ...). Background
// syncs keep running.
func (d *Device) Idle(dur simclock.Duration) {
	d.Clk.RunUntil(d.Clk.Now().Add(dur))
}

// EnableHangService boots the OS-level service: a Hang Doctor per installed
// app (present and future) plus the stock ANR watchdog.
func (d *Device) EnableHangService(cfg core.Config) *HangService {
	if d.svc != nil {
		return d.svc
	}
	d.svc = &HangService{dev: d, cfg: cfg, doctors: map[*Process]*core.Doctor{}}
	for _, p := range d.procs {
		d.svc.attach(p)
	}
	return d.svc
}
