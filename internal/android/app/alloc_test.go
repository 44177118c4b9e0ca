package app_test

import (
	"strings"
	"testing"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/trace"
)

// TestWarmActionAllocs bounds the device substrate's garbage per action: a
// warm K9-Mail "Inbox" action plus a second of think time on the LGV10
// allocates only the ActionExec record Perform returns, which holds its
// events and heavy ops inline; messages, programs, frame batches and queues
// are the session's and are reused.
func TestWarmActionAllocs(t *testing.T) {
	a := corpus.Shared().MustApp("K9-Mail")
	s, err := app.NewSession(a, app.LGV10(), 7)
	if err != nil {
		t.Fatal(err)
	}
	inbox := a.MustAction("Inbox")
	for i := 0; i < 20; i++ {
		s.Perform(inbox)
		s.Idle(simclock.Second)
	}
	const max = 1
	if n := testing.AllocsPerRun(50, func() {
		s.Perform(inbox)
		s.Idle(simclock.Second)
	}); n > max {
		t.Errorf("warm Inbox action allocates %.1f objects, want at most %d", n, max)
	}
}

// TestBackgroundThreadsReused pins the interference threads' reuse: a
// session parks and restarts the same scheduler thread per background slot,
// so its thread population stops growing after the first action and a
// trace shows each background thread under one tid.
func TestBackgroundThreadsReused(t *testing.T) {
	a := corpus.Shared().MustApp("K9-Mail")
	dev := app.LGV10()
	s, err := app.NewSession(a, dev, 7)
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector(s.Clk)
	s.Sched.SetTracer(col)
	// A new thread's ID counts the threads created before it, so two probe
	// threads one ID apart bracket a stretch that created no other thread.
	var probe int
	for i, act := range corpus.Trace(a, 42, 40) {
		s.Perform(act)
		s.Idle(simclock.Second)
		if i == 0 {
			probe = s.Sched.NewThread("probe").ID
		} else if got := s.Sched.NewThread("probe").ID; got != probe+1 {
			t.Fatalf("action %d: %d threads created since the first action, want 0", i, got-probe-1)
		} else {
			probe = got
		}
	}
	tids := map[string]map[int]bool{}
	for _, sp := range col.Spans() {
		if strings.HasPrefix(sp.Thread, "bg") {
			if tids[sp.Thread] == nil {
				tids[sp.Thread] = map[int]bool{}
			}
			tids[sp.Thread][sp.ThreadID] = true
		}
	}
	if len(tids) != dev.BGThreads {
		t.Fatalf("trace shows background threads %v, want %d", tids, dev.BGThreads)
	}
	for name, ids := range tids {
		if len(ids) != 1 {
			t.Errorf("background thread %s appears under %d tids, want 1", name, len(ids))
		}
	}
}
