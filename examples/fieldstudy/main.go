// Field study: the paper's deployment model — Hang Doctor embedded in an
// app shipped to a fleet of users, each device reporting anonymized Hang
// Bug Report entries that a developer-side service merges (§3.2, §4.2).
//
// Twenty simulated users run AndStatus with different usage mixes and
// devices; the merged report reproduces Figure 2(b): entries ordered by
// occurrence share with per-device spread.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"hangdoctor"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run writes the example's output to w.
func run(w io.Writer) error {
	c := hangdoctor.LoadCorpus()
	andstatus := c.MustApp("AndStatus")

	devices := []func() hangdoctor.Device{
		hangdoctor.LGV10, hangdoctor.Nexus5, hangdoctor.GalaxyS3,
	}

	const users = 20
	const actionsPerUser = 300

	fleet := hangdoctor.NewReport()
	found := map[string]bool{}
	var uploadedBytes int
	for u := 0; u < users; u++ {
		dev := devices[u%len(devices)]()
		dev.Name = fmt.Sprintf("user-%02d (%s)", u, dev.Name)
		sess, err := hangdoctor.NewSession(andstatus, dev, uint64(1000+u))
		if err != nil {
			return err
		}
		doctor := hangdoctor.Monitor(sess, hangdoctor.Config{})
		hangdoctor.RunTrace(sess, hangdoctor.Trace(andstatus, uint64(1000+u), actionsPerUser), hangdoctor.Second)
		for _, det := range doctor.Detections() {
			found[det.RootCause] = true
		}

		// The upload path a real deployment uses: the device anonymizes its
		// identifier, serializes the report to JSON, and the developer-side
		// service parses and merges it.
		var wire bytes.Buffer
		if err := doctor.Report().Anonymize("fleet-salt").Export(&wire); err != nil {
			return err
		}
		uploadedBytes += wire.Len()
		imported, err := hangdoctor.ImportReport(&wire)
		if err != nil {
			return err
		}
		fleet.Merge(imported)
	}

	fmt.Fprintf(w, "fleet: %d users x %d actions each, %d bytes of anonymized JSON uploaded\n\n", users, actionsPerUser, uploadedBytes)
	fmt.Fprintln(w, "merged Hang Bug Report (Figure 2(b)):")
	fmt.Fprint(w, fleet.Render())

	fmt.Fprintln(w, "\nper-entry device coverage:")
	for _, e := range fleet.Entries() {
		fmt.Fprintf(w, "  %-66s seen on %d/%d devices (%.0f%%)\n",
			e.RootCause+" @ "+e.ActionUID, e.Devices.Len(), users,
			100*float64(e.Devices.Len())/float64(users))
	}

	fmt.Fprintf(w, "\ndistinct root causes diagnosed across the fleet: %d (AndStatus seeds 3 bugs)\n", len(found))
	return nil
}
