// Command hangdoctor-sim runs one corpus app under a chosen detector on a
// simulated device and prints what the detector found.
//
// Usage:
//
//	hangdoctor-sim -app K9-Mail [-detector hd|ti|utl|uth|utl+ti|uth+ti]
//	               [-actions 200] [-seed 42] [-device lgv10|nexus5|galaxys3]
//	               [-transitions] [-offline]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/core"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/detect"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/trace"
)

func main() {
	err := run(os.Stdout, os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, err)
	var ue usageError
	if errors.As(err, &ue) {
		os.Exit(2)
	}
	os.Exit(1)
}

// usageError marks a bad command line; main exits 2 for it and 1 for a
// failed run.
type usageError struct{ error }

// run parses args, runs the chosen app under the chosen detector and
// writes everything it found to w. A malformed flag or -h exits the process
// as the flag package does.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("hangdoctor-sim", flag.ExitOnError)
	appName := fs.String("app", "K9-Mail", "corpus app to run")
	detName := fs.String("detector", "hd", "detector: hd, ti, utl, uth, utl+ti, uth+ti")
	actions := fs.Int("actions", 200, "number of user actions in the trace")
	seed := fs.Uint64("seed", 42, "deterministic seed")
	deviceName := fs.String("device", "lgv10", "device model: lgv10, nexus5, galaxys3")
	showTransitions := fs.Bool("transitions", false, "print the HD state-transition log")
	offline := fs.Bool("offline", false, "also run the offline scanner and compare")
	traceOut := fs.String("trace", "", "write a Chrome trace (chrome://tracing / Perfetto) of the run to this file")
	listApps := fs.Bool("list", false, "list corpus apps and exit")
	_ = fs.Parse(args) // ExitOnError exits on a bad flag, so Parse returns no error

	c := corpus.Build()
	if *listApps {
		for _, a := range c.Apps {
			fmt.Fprintf(w, "%-24s %-18s bugs=%d\n", a.Name, a.Category, len(a.Bugs))
		}
		return nil
	}
	a, ok := c.App(*appName)
	if !ok {
		return usageError{fmt.Errorf("no app %q in corpus (try -list)", *appName)}
	}
	var dev app.Device
	switch *deviceName {
	case "lgv10":
		dev = app.LGV10()
	case "nexus5":
		dev = app.Nexus5()
	case "galaxys3":
		dev = app.GalaxyS3()
	default:
		return usageError{fmt.Errorf("unknown device %q", *deviceName)}
	}

	traceActions := corpus.Trace(a, *seed, *actions)
	det, err := buildDetector(*detName, a, dev, *seed, traceActions)
	if err != nil {
		return usageError{err}
	}
	h, err := detect.NewHarness(a, dev, *seed, det)
	if err != nil {
		return err
	}
	var collector *trace.Collector
	if *traceOut != "" {
		collector = trace.NewCollector(h.Session.Clk)
		h.Session.Sched.SetTracer(collector)
		h.Session.Looper.AddDispatchHook(collector)
		h.Session.AddListener(collector)
	}
	h.Run(traceActions, simclock.Second)
	if collector != nil {
		if err := writeTrace(collector, *traceOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d trace spans to %s\n", len(collector.Spans()), *traceOut)
	}

	ev := h.Evaluate(det)
	fmt.Fprintf(w, "app %s on %s: %d actions, %d bug hangs, %d UI hangs\n",
		a.Name, dev.Name, *actions, ev.GroundTruthHangs, ev.UIHangs)
	fmt.Fprintf(w, "%s: TP=%d FP=%d FN=%d, overhead %.2f%%\n",
		det.Name(), ev.TP, ev.FP, ev.FN, h.Overhead(det).Avg())
	ids := ev.BugIDs()
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "  covered bug: %s\n", id)
	}

	if d, isHD := det.(*core.Doctor); isHD {
		fmt.Fprintln(w, "\nresponsiveness dashboard:")
		fmt.Fprint(w, d.Telemetry().Render())
		fmt.Fprintln(w, "\nHang Bug Report:")
		fmt.Fprint(w, d.Report().Render())
		if *showTransitions {
			fmt.Fprintln(w, "\nstate transitions:")
			for _, tr := range d.Transitions() {
				fmt.Fprintf(w, "  %-40s %-10s %v -> %v (exec %d)\n", tr.ActionUID, tr.Phase, tr.From, tr.To, tr.ExecSeq)
			}
		}
	}
	if *offline {
		fmt.Fprintln(w, "\noffline scanner findings:")
		findings := detect.OfflineScan(a, c.Registry)
		if len(findings) == 0 {
			fmt.Fprintln(w, "  (none)")
		}
		for _, f := range findings {
			tag := ""
			if f.Op.Bug != nil {
				tag = "  [seeded bug " + f.Op.Bug.ID + "]"
			}
			fmt.Fprintf(w, "  %s calls %s%s\n", f.Action.UID, f.API.Key(), tag)
		}
	}
	return nil
}

// writeTrace writes the collected spans to path as a Chrome trace.
func writeTrace(c *trace.Collector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildDetector resolves a detector name, calibrating UT thresholds when
// needed.
func buildDetector(name string, a *app.App, dev app.Device, seed uint64, trace []*app.Action) (detect.Detector, error) {
	switch name {
	case "hd":
		return core.New(core.Config{}), nil
	case "ti":
		return detect.NewTimeout(detect.PerceivableDelay), nil
	case "utl", "uth", "utl+ti", "uth+ti":
		low, high, err := detect.CalibrateUT(a, dev, seed+77, trace)
		if err != nil {
			return nil, fmt.Errorf("calibrating UT thresholds: %w", err)
		}
		switch name {
		case "utl":
			return detect.NewUtilization("UTL", low, false, 0), nil
		case "uth":
			return detect.NewUtilization("UTH", high, false, 0), nil
		case "utl+ti":
			return detect.NewUtilization("UTL", low, true, 0), nil
		default:
			return detect.NewUtilization("UTH", high, true, 0), nil
		}
	default:
		return nil, fmt.Errorf("unknown detector %q", name)
	}
}
