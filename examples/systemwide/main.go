// System-wide deployment: the paper's §3.5 future work — Hang Doctor
// generalized into an OS service that supervises every installed app,
// replacing the stock 5-second ANR tool with 100 ms soft-hang detection
// and diagnosis.
//
// A simulated phone runs three apps. The user hops between them; background
// apps keep syncing (their bursts are what preempt the foreground app's
// main thread). The HangService diagnoses bugs in all three apps, produces
// one device-wide Hang Bug Report, and the legacy ANR watchdog — also
// running — never fires once.
package main

import (
	"fmt"
	"io"
	"os"

	"hangdoctor"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/system"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run writes the example's output to w.
func run(w io.Writer) error {
	c := corpus.Build()
	dev, err := system.NewDevice(hangdoctor.LGV10(), 42)
	if err != nil {
		return err
	}
	svc := dev.EnableHangService(hangdoctor.Config{})

	var procs []*system.Process
	for _, name := range []string{"K9-Mail", "AndStatus", "Omni-Notes"} {
		p, err := dev.Install(c.MustApp(name))
		if err != nil {
			return err
		}
		procs = append(procs, p)
	}
	fmt.Fprintf(w, "device: %s, %d cores, %d apps installed, HangService on\n\n",
		dev.Model.Name, dev.Model.Cores, len(dev.Processes()))

	// The user bounces between apps; ~70 actions per app overall.
	for round := 0; round < 7; round++ {
		for _, p := range procs {
			if err := dev.SwitchTo(p); err != nil {
				return err
			}
			for _, act := range corpus.Trace(p.App, uint64(100+round), 10) {
				p.Session.Perform(act)
				dev.Idle(hangdoctor.Second)
			}
		}
	}

	fmt.Fprintln(w, "soft hang bugs diagnosed across the device:")
	for _, f := range svc.SoftHangBugsFound() {
		fmt.Fprintln(w, "  "+f)
	}

	fmt.Fprintln(w, "\ndevice-wide Hang Bug Report:")
	fmt.Fprint(w, svc.DeviceReport().Render())

	fmt.Fprintf(w, "\nstock ANR tool (5s timeout) dialogs shown: %d\n", len(svc.ANRs()))
	fmt.Fprintln(w, "every one of the hangs above was invisible to it")
	return nil
}
