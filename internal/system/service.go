package system

import (
	"sort"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/core"
	"hangdoctor/internal/simclock"
)

// ANRTimeout is stock Android's Application-Not-Responding threshold. The
// paper's motivation: it misses everything below 5 s — i.e. essentially all
// soft hangs.
const ANRTimeout = 5 * simclock.Second

// ANREvent records one would-be ANR dialog.
type ANREvent struct {
	App       string
	ActionUID string
	Response  simclock.Duration
	At        simclock.Time
}

// HangService is the OS-integrated generalization of Hang Doctor: one
// doctor per installed app, plus the legacy ANR watchdog it improves on.
type HangService struct {
	dev     *Device
	cfg     core.Config
	doctors map[*Process]*core.Doctor
	anrs    []ANREvent
}

// attach wires a doctor and the ANR watchdog into a process's session.
func (s *HangService) attach(p *Process) {
	d := core.New(s.cfg)
	d.Attach(p.Session)
	p.Session.AddListener(d)
	s.doctors[p] = d
	p.Session.AddListener(&anrWatchdog{svc: s, proc: p})
}

// ANRs returns the ANR dialogs the stock tool would have shown.
func (s *HangService) ANRs() []ANREvent { return s.anrs }

// SoftHangBugsFound returns the distinct (app, action, root cause) triples
// diagnosed across every installed app, sorted.
func (s *HangService) SoftHangBugsFound() []string {
	var out []string
	for p, d := range s.doctors {
		for _, det := range d.Detections() {
			out = append(out, p.App.Name+": "+det.ActionUID+" -> "+det.RootCause)
		}
	}
	sort.Strings(out)
	return out
}

// DeviceReport merges every app's Hang Bug Report into one device-wide
// view, the artifact the OS would sync to developers.
func (s *HangService) DeviceReport() *core.Report {
	out := core.NewReport()
	for _, d := range s.doctors {
		out.Merge(d.Report())
	}
	return out
}

// anrWatchdog reproduces the stock 5 s ANR tool for comparison.
type anrWatchdog struct {
	svc  *HangService
	proc *Process
}

func (w *anrWatchdog) ActionStart(e *app.ActionExec) {}

func (w *anrWatchdog) EventStart(e *app.ActionExec, ev *app.EventExec) {
	evRef := ev
	w.proc.Session.Clk.After(ANRTimeout, func() {
		if !evRef.Done {
			w.svc.anrs = append(w.svc.anrs, ANREvent{
				App:       w.proc.App.Name,
				ActionUID: e.Action.UID,
				Response:  ANRTimeout,
				At:        w.proc.Session.Clk.Now(),
			})
		}
	})
}

func (w *anrWatchdog) EventEnd(e *app.ActionExec, ev *app.EventExec) {}
func (w *anrWatchdog) ActionEnd(e *app.ActionExec)                   {}
