package system

import (
	"fmt"
	"strings"
	"testing"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/core"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/simclock"
)

// Perform executes a user action on the foreground app, by name; the
// examples drive a process's session directly instead.
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

func bootDevice(t *testing.T, appNames ...string) (*Device, *corpus.Corpus, []*Process) {
	t.Helper()
	c := corpus.Build()
	d, err := NewDevice(app.LGV10(), 42)
	if err != nil {
		t.Fatal(err)
	}
	var procs []*Process
	for _, name := range appNames {
		p, err := d.Install(c.MustApp(name))
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	return d, c, procs
}

func TestInstallAndForeground(t *testing.T) {
	d, _, procs := bootDevice(t, "K9-Mail", "AndStatus", "Omni-Notes")
	if d.foreground != procs[0] {
		t.Fatal("first installed app not foreground")
	}
	if err := d.SwitchTo(procs[1]); err != nil {
		t.Fatal(err)
	}
	if d.foreground != procs[1] {
		t.Fatal("switch failed")
	}
	// Reinstall is rejected.
	if _, err := d.Install(procs[0].App); err == nil {
		t.Fatal("duplicate install accepted")
	}
	if len(d.Processes()) != 3 {
		t.Fatalf("processes = %d", len(d.Processes()))
	}
}

func TestPerformOnForeground(t *testing.T) {
	d, _, _ := bootDevice(t, "K9-Mail")
	exec, err := d.Perform("Folders")
	if err != nil {
		t.Fatal(err)
	}
	if exec.ResponseTime() <= 0 {
		t.Fatal("no response time recorded")
	}
	if _, err := d.Perform("No Such Action"); err == nil {
		t.Fatal("unknown action accepted")
	}
}

func TestBackgroundSyncPreemptsForeground(t *testing.T) {
	// With two background apps syncing, a long foreground compute gets
	// preempted — cross-app contention replaces synthetic interference.
	d, _, procs := bootDevice(t, "QKSMS", "K9-Mail", "AndStatus")
	_ = procs
	before := d.foreground.Session.MainThread().Counters()
	// Backup Messages is a ~420ms CPU loop.
	for i := 0; i < 6; i++ {
		if _, err := d.Perform("Backup Messages"); err != nil {
			t.Fatal(err)
		}
		d.Idle(simclock.Second)
	}
	delta := d.foreground.Session.MainThread().Counters().Sub(before)
	if delta.InvoluntaryCtxSwitch < 5 {
		t.Fatalf("foreground loop preempted only %d times; background apps idle?", delta.InvoluntaryCtxSwitch)
	}
	// Background workers actually consumed CPU.
	var syncCPU int64
	for _, p := range d.Processes()[1:] {
		syncCPU += p.worker.Counters().TaskClock
	}
	if syncCPU == 0 {
		t.Fatal("background sync never ran")
	}
}

func TestForegroundAppDoesNotSync(t *testing.T) {
	d, _, procs := bootDevice(t, "K9-Mail", "AndStatus")
	d.Idle(5 * simclock.Second)
	fgCPU := procs[0].worker.Counters().TaskClock
	bgCPU := procs[1].worker.Counters().TaskClock
	if fgCPU != 0 {
		t.Fatalf("foreground app ran sync jobs (%d ns)", fgCPU)
	}
	if bgCPU == 0 {
		t.Fatal("background app never synced")
	}
	// After switching, roles swap.
	d.SwitchTo(procs[1])
	d.Idle(5 * simclock.Second)
	if procs[0].worker.Counters().TaskClock == 0 {
		t.Fatal("backgrounded app did not start syncing")
	}
}

func TestHangServiceFindsBugsAcrossApps(t *testing.T) {
	d, _, procs := bootDevice(t, "K9-Mail", "Omni-Notes")
	svc := d.EnableHangService(core.Config{})

	driveApp := func(p *Process, n int) {
		d.SwitchTo(p)
		for _, act := range corpus.Trace(p.App, 42, n) {
			p.Session.Perform(act)
			d.Idle(simclock.Second)
		}
	}
	driveApp(procs[0], 80)
	driveApp(procs[1], 80)

	found := svc.SoftHangBugsFound()
	wantSub := []string{
		"K9-Mail: K9-Mail/Open Email -> org.htmlcleaner.HtmlCleaner.clean",
		"Omni-Notes:",
	}
	for _, sub := range wantSub {
		ok := false
		for _, f := range found {
			if strings.Contains(f, sub) {
				ok = true
			}
		}
		if !ok {
			t.Errorf("service findings missing %q; got %v", sub, found)
		}
	}

	// The device-wide report spans both apps.
	rep := svc.DeviceReport()
	apps := map[string]bool{}
	for _, e := range rep.Entries() {
		apps[e.App] = true
	}
	if !apps["K9-Mail"] || !apps["Omni-Notes"] {
		t.Fatalf("device report apps = %v", apps)
	}

	// The stock ANR tool saw nothing: every hang is below 5s.
	if n := len(svc.ANRs()); n != 0 {
		t.Fatalf("ANR tool fired %d times on sub-5s hangs", n)
	}
}

func TestHangServiceAttachesToLaterInstalls(t *testing.T) {
	d, c, _ := bootDevice(t, "K9-Mail")
	svc := d.EnableHangService(core.Config{})
	p, err := d.Install(c.MustApp("SkyTube"))
	if err != nil {
		t.Fatal(err)
	}
	if svc.doctors[p] == nil {
		t.Fatal("service did not attach to a later install")
	}
	d.SwitchTo(p)
	for _, act := range corpus.Trace(p.App, 7, 60) {
		p.Session.Perform(act)
		d.Idle(simclock.Second)
	}
	if len(svc.doctors[p].Detections()) == 0 {
		t.Fatal("no detections for the later-installed app")
	}
}

func TestANRWatchdogFiresAboveFiveSeconds(t *testing.T) {
	// A pathological app whose action blocks for 6s must trip the ANR tool.
	c := corpus.Build()
	read, _ := c.Registry.API("java.io.FileInputStream.read")
	frozen := &app.App{
		Name:     "FrozenApp",
		Registry: c.Registry,
		Actions: []*app.Action{{
			Name: "Freeze",
			Events: []*app.InputEvent{{Name: "e", Ops: []*app.Op{{
				Name:  "read",
				API:   read,
				Heavy: app.IOHeavy(200*simclock.Millisecond, 12, 500*simclock.Millisecond),
			}}}},
		}},
	}
	d, err := NewDevice(app.LGV10(), 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Install(frozen)
	if err != nil {
		t.Fatal(err)
	}
	svc := d.EnableHangService(core.Config{})
	d.SwitchTo(p)
	if _, err := d.Perform("Freeze"); err != nil {
		t.Fatal(err)
	}
	d.Idle(10 * simclock.Second) // let the 5s watchdog fire mid-hang
	if len(svc.ANRs()) == 0 {
		t.Fatal("ANR watchdog missed a >5s hang")
	}
	ev := svc.ANRs()[0]
	if ev.App != "FrozenApp" || ev.Response != ANRTimeout {
		t.Fatalf("ANR event = %+v", ev)
	}
}

func TestDeviceErrors(t *testing.T) {
	if _, err := NewDevice(app.Device{}, 1); err == nil {
		t.Fatal("zero-core device accepted")
	}
	d, _, _ := bootDevice(t, "K9-Mail")
	other, _, otherProcs := bootDevice(t, "AndStatus")
	_ = other
	if err := d.SwitchTo(otherProcs[0]); err == nil {
		t.Fatal("cross-device switch accepted")
	}
}
