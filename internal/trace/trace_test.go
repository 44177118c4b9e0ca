package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/simclock"
)

// tracedSession wires a collector into a fresh K9-Mail session.
func tracedSession(t *testing.T) (*Collector, *app.Session, *app.App) {
	t.Helper()
	c := corpus.Build()
	a := c.MustApp("K9-Mail")
	s, err := app.NewSession(a, app.LGV10(), 42)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(s.Clk)
	s.Sched.SetTracer(col)
	s.Looper.AddDispatchHook(col)
	s.AddListener(col)
	return col, s, a
}

func TestSpansCoverExecution(t *testing.T) {
	col, s, a := tracedSession(t)
	for i := 0; i < 5; i++ {
		s.Perform(a.MustAction("Inbox"))
		s.Idle(simclock.Second)
	}
	spans := col.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	cats := map[string]int{}
	for _, sp := range spans {
		cats[sp.Category]++
		if sp.End < sp.Start {
			t.Fatalf("negative span: %+v", sp)
		}
	}
	if cats["sched"] == 0 || cats["dispatch"] == 0 || cats["action"] == 0 {
		t.Fatalf("span categories missing: %v", cats)
	}
	if cats["action"] != 5 || cats["dispatch"] != 5 {
		t.Fatalf("expected 5 action and 5 dispatch spans: %v", cats)
	}
}

func TestOnCPUTimeMatchesTaskClock(t *testing.T) {
	col, s, a := tracedSession(t)
	for i := 0; i < 4; i++ {
		s.Perform(a.MustAction("Open Email"))
		s.Idle(simclock.Second)
	}
	main := s.MainThread()
	var got simclock.Duration
	for _, sp := range col.Spans() {
		if sp.Category == "sched" && sp.ThreadID == main.ID {
			got += sp.Dur()
		}
	}
	want := simclock.Duration(main.Counters().TaskClock)
	// On-CPU occupancy includes zero-cost scheduling overheadless gaps; the
	// two accountings must agree exactly in this simulator.
	if got != want {
		t.Fatalf("traced on-CPU %v != task clock %v", got, want)
	}
}

func TestSchedSpansDoNotOverlapPerThread(t *testing.T) {
	col, s, a := tracedSession(t)
	for i := 0; i < 6; i++ {
		s.Perform(a.MustAction("Folders"))
		s.Idle(500 * simclock.Millisecond)
	}
	last := map[int]simclock.Time{}
	for _, sp := range col.Spans() {
		if sp.Category != "sched" {
			continue
		}
		if sp.Start < last[sp.ThreadID] {
			t.Fatalf("overlapping spans on thread %d at %v", sp.ThreadID, sp.Start)
		}
		last[sp.ThreadID] = sp.End
	}
}

func TestChromeTraceExport(t *testing.T) {
	col, s, a := tracedSession(t)
	s.Perform(a.MustAction("Inbox"))
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	sawAction := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Fatalf("bad event: %+v", ev)
		}
		if ev.TID == 1001 {
			sawAction = true
		}
	}
	if !sawAction {
		t.Fatal("action row missing from Chrome trace")
	}
}

func TestDeschedReasonsRecorded(t *testing.T) {
	col, s, a := tracedSession(t)
	s.Perform(a.MustAction("Open Email")) // blocks + parks + preemption
	reasons := map[string]bool{}
	for _, sp := range col.Spans() {
		if sp.Category == "sched" {
			reasons[sp.Args["reason"]] = true
		}
	}
	for _, want := range []string{"parked", "blocked"} {
		if !reasons[want] {
			t.Errorf("reason %q never recorded: %v", want, reasons)
		}
	}
}
