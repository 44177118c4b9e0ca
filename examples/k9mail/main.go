// K9-Mail walk-through: the paper's §4.3 example, end to end, on the
// simulated corpus app. Shows the two-phase pipeline on the HtmlCleaner
// bug (Figure 6) and the state machine pruning the Folders/Inbox UI hangs
// (Figure 7).
package main

import (
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
	k9 := c.MustApp("K9-Mail")

	sess, err := hangdoctor.NewSession(k9, hangdoctor.LGV10(), 42)
	if err != nil {
		return err
	}
	doctor := hangdoctor.Monitor(sess, hangdoctor.Config{})

	fmt.Fprintln(w, "driving 150 user actions on K9-Mail (Open Email, Inbox, Folders, ...)")
	hangs := 0
	for _, act := range hangdoctor.Trace(k9, 42, 150) {
		exec := sess.Perform(act)
		if exec.ResponseTime() > hangdoctor.PerceivableDelay {
			hangs++
		}
		sess.Idle(hangdoctor.Second)
	}
	fmt.Fprintf(w, "observed %d soft hangs\n\n", hangs)

	fmt.Fprintln(w, "state transitions (Figure 3 / Figure 7):")
	for _, tr := range doctor.Transitions() {
		fmt.Fprintf(w, "  %-30s %-10s %-13v -> %v (execution %d)\n",
			tr.ActionUID, tr.Phase, tr.From, tr.To, tr.ExecSeq)
	}

	fmt.Fprintln(w, "\nconfirmed diagnoses (Figure 6's outcome):")
	for _, det := range doctor.Detections() {
		fmt.Fprintf(w, "  %s\n    root cause %s (%s:%d), occurrence %.0f%%, diagnosed %d times, worst hang %v\n",
			det.ActionUID, det.RootCause, det.File, det.Line,
			100*det.Occurrence, det.Count, det.MaxResponse)
	}

	fmt.Fprintln(w, "\nHang Bug Report:")
	fmt.Fprint(w, doctor.Report().Render())

	// Offline tools now know about the APIs Hang Doctor diagnosed.
	fmt.Fprintln(w, "\nnewly learned blocking APIs:")
	for _, key := range []string{
		"org.htmlcleaner.HtmlCleaner.clean",
		"org.apache.james.mime4j.parser.MimeStreamParser.parse",
	} {
		fmt.Fprintf(w, "  %-60s known=%v\n", key, c.Registry.IsKnownBlocking(key))
	}
	return nil
}
