// Filter adaptation: the paper's §3.3.1 extension. A device whose filter
// thresholds were configured badly (here: a page-fault threshold far too
// high, so the memory-signature Omni-Notes bugs slip through) collects
// labeled S-Checker readings and runs the light adaptation pass to repair
// its thresholds on-device, falling back to the heavy (server-side)
// re-selection when nudging thresholds cannot fix the filter.
package main

import (
	"fmt"
	"io"
	"os"

	"hangdoctor"
)

// runWith runs Omni-Notes under a doctor configured with conds and reports
// how it did.
func runWith(a *hangdoctor.App, conds []hangdoctor.Condition, collect bool, seed uint64) (*hangdoctor.Doctor, int, error) {
	sess, err := hangdoctor.NewSession(a, hangdoctor.LGV10(), seed)
	if err != nil {
		return nil, 0, err
	}
	doctor := hangdoctor.Monitor(sess, hangdoctor.Config{
		Conditions:        conds,
		CollectAdaptation: collect,
	})
	hangdoctor.RunTrace(sess, hangdoctor.Trace(a, seed, 200), hangdoctor.Second)
	return doctor, len(doctor.Detections()), nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run writes the example's output to w.
func run(w io.Writer) error {
	c := hangdoctor.LoadCorpus()
	omni := c.MustApp("Omni-Notes")

	// A misconfigured filter: the page-fault threshold is 50x the paper's,
	// so Omni-Notes' memory-bound bugs (page-fault signature, Table 6)
	// never look suspicious.
	bad := hangdoctor.DefaultConditions()
	bad[2].Threshold = 25_000_000

	doctor, found, err := runWith(omni, bad, true, 11)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "misconfigured filter: %d detections on Omni-Notes (3 bugs seeded)\n", found)

	data := doctor.AdaptationData()
	bugs := 0
	for _, d := range data {
		if d.IsBug {
			bugs++
		}
	}
	fmt.Fprintf(w, "collected %d labeled S-Checker readings (%d from bug hangs)\n", len(data), bugs)

	// Light adaptation: keep the same three events, re-fit the thresholds.
	res, ok := hangdoctor.LightAdapt(bad, data)
	if !ok {
		fmt.Fprintln(w, "light adaptation insufficient; a deployment would escalate to heavy adaptation")
		return nil
	}
	fmt.Fprintln(w, "light adaptation succeeded; repaired conditions:")
	for _, cond := range res.Conditions {
		fmt.Fprintf(w, "  %-20s > %d\n", cond.Event.Name(), cond.Threshold)
	}
	fmt.Fprintf(w, "residual errors on collected data: FN=%d FP=%d\n", res.FN, res.FP)

	_, found2, err := runWith(omni, res.Conditions, false, 12)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nre-run with adapted filter: %d detections\n", found2)
	if found2 > found {
		fmt.Fprintln(w, "adaptation recovered the page-fault-signature bugs")
	}
	return nil
}
