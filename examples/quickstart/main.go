// Quickstart: embed Hang Doctor in your own (simulated) app and let it find
// a blocking operation your offline tools don't know about.
//
// The app has two screens. "Open Notes" calls an undocumented disk-cache
// API on the main thread — a soft hang bug no static scanner flags, because
// the API is not in any known-blocking database. "Browse" runs legitimate
// but heavy UI work that hangs just as perceptibly. Hang Doctor separates
// the two at runtime and reports only the real bug.
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
	// 1. An API universe: the platform classes plus our app's own library.
	reg := hangdoctor.NewRegistry()
	cacheClass := reg.DefineClass("com.example.notes.NoteCache", false, "", false)
	warmUp := reg.DefineAPI(cacheClass, "warmUp", "", 42, 0) // never documented blocking
	setText, _ := reg.API("android.widget.TextView.setText")

	// 2. The app model: actions -> input events -> operations.
	bug := &hangdoctor.Bug{ID: "NotesApp/1", IssueID: "1",
		Description: "NoteCache.warmUp does disk I/O on the main thread"}
	notes := &hangdoctor.App{
		Name:     "NotesApp",
		Registry: reg,
		Bugs:     []*hangdoctor.Bug{bug},
		Actions: []*hangdoctor.Action{
			{
				Name: "Open Notes",
				Events: []*hangdoctor.InputEvent{{Name: "evt0", Ops: []*hangdoctor.Op{{
					Name: "warmUp",
					API:  warmUp,
					// ~50ms CPU + 10 disk waits of ~22ms: a 250-300ms hang
					// when the cache is cold (70% of executions).
					Heavy:    hangdoctor.IOHeavy(50*hangdoctor.Millisecond, 10, 22*hangdoctor.Millisecond),
					Manifest: 0.7,
					Bug:      bug,
				}}}},
			},
			{
				Name: "Browse",
				Events: []*hangdoctor.InputEvent{{Name: "evt0", Ops: []*hangdoctor.Op{{
					Name: "setText",
					API:  setText,
					// 130ms of legitimate main-thread layout plus 12 frames
					// of render work: a perceivable hang, but not a bug.
					Heavy: hangdoctor.UIWork(130*hangdoctor.Millisecond, 12),
				}}}},
			},
		},
	}

	// 3. Run the app on a simulated LG V10 with Hang Doctor attached.
	sess, err := hangdoctor.NewSession(notes, hangdoctor.LGV10(), 7)
	if err != nil {
		return err
	}
	doctor := hangdoctor.Monitor(sess, hangdoctor.Config{})

	for i := 0; i < 40; i++ {
		act := notes.Actions[i%2]
		exec := sess.Perform(act)
		if rt := exec.ResponseTime(); rt > hangdoctor.PerceivableDelay {
			fmt.Fprintf(w, "soft hang: %-12s %9v  (state now %v)\n",
				act.Name, rt, doctor.State(act.UID))
		}
		sess.Idle(hangdoctor.Second)
	}

	// 4. What the developer sees.
	fmt.Fprintln(w, "\nHang Bug Report:")
	fmt.Fprint(w, doctor.Report().Render())

	fmt.Fprintln(w, "\naction states:")
	for _, act := range notes.Actions {
		fmt.Fprintf(w, "  %-12s -> %v\n", act.Name, doctor.State(act.UID))
	}

	// 5. The feedback loop: the diagnosed API is now in the database that
	// offline tools scan with.
	fmt.Fprintf(w, "\nNoteCache.warmUp known blocking after the run: %v\n",
		reg.IsKnownBlocking("com.example.notes.NoteCache.warmUp"))
	return nil
}
