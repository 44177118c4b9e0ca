package core

import (
	"testing"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/simclock"
)

// monitoredCases are four warm monitored actions on the LGV10, one per path
// a Doctor takes through an action: filtered as Normal, checked by the
// S-Checker, re-diagnosed at every hang, and a causal await the Diagnoser
// keeps attributing to a pool worker. maxAllocs is each one's bound: the
// *ActionExec record Session.Perform returns, and nothing else.
var monitoredCases = []struct {
	name, app, action string
	state             ActionState
	maxAllocs         float64
}{
	{"filtered", "K9-Mail", "Inbox", Normal, 1},
	{"scheck", "ChatRelay", "Scroll Threads", Uncategorized, 1},
	{"diagnosing", "K9-Mail", "Open Email", HangBug, 1},
	{"await", "ChatRelay", "Open Thread", HangBug, 1},
}

// warmMonitored builds a session of the named app on the LGV10 under a
// default Doctor, on a private corpus (the Doctor's known-blocking
// feedback writes to the app's registry), and performs the action until
// the Doctor has settled its state and every buffer has grown.
func warmMonitored(tb testing.TB, appName, action string, want ActionState) (*app.Session, *Doctor, *app.Action) {
	tb.Helper()
	a := corpus.Build().MustApp(appName)
	s, err := app.NewSession(a, app.LGV10(), 7)
	if err != nil {
		tb.Fatal(err)
	}
	d := New(Config{})
	d.Attach(s)
	s.AddListener(d)
	act := a.MustAction(action)
	for i := 0; i < 60; i++ {
		s.Perform(act)
		s.Idle(simclock.Second)
	}
	if got := d.State(act.UID); got != want {
		tb.Fatalf("%s after warm-up is %v, want %v", act.UID, got, want)
	}
	return s, d, act
}

// TestMonitoredActionAllocs bounds a warm monitored action's garbage: the
// device and the Doctor reuse every buffer they own, so an action plus a
// second of think time allocates only the record Perform returns.
func TestMonitoredActionAllocs(t *testing.T) {
	for _, tc := range monitoredCases {
		t.Run(tc.name, func(t *testing.T) {
			s, _, act := warmMonitored(t, tc.app, tc.action, tc.state)
			if n := testing.AllocsPerRun(100, func() {
				s.Perform(act)
				s.Idle(simclock.Second)
			}); n > tc.maxAllocs {
				t.Errorf("warm %s allocates %.1f objects, want at most %g", act.UID, n, tc.maxAllocs)
			}
		})
	}
}

// BenchmarkMonitoredAction times one warm monitored action plus a second
// of think time on each path of monitoredCases; allocs/op counts the
// record Perform returns.
func BenchmarkMonitoredAction(b *testing.B) {
	for _, tc := range monitoredCases {
		b.Run(tc.name, func(b *testing.B) {
			s, _, act := warmMonitored(b, tc.app, tc.action, tc.state)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Perform(act)
				s.Idle(simclock.Second)
			}
		})
	}
}

// BenchmarkMonitoredSession times what one field-study session costs: a new
// session and Doctor on the LGV10 running a 120-action user trace, with a
// second of think time after each action. The apps rotate over the Table-5
// and async corpus, on one private corpus per benchmark run.
func BenchmarkMonitoredSession(b *testing.B) {
	c := corpus.Build()
	apps := append(append([]*app.App{}, c.Table5...), c.Async...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := apps[i%len(apps)]
		seed := uint64(i)
		s, err := app.NewSession(a, app.LGV10(), seed)
		if err != nil {
			b.Fatal(err)
		}
		d := New(Config{})
		d.Attach(s)
		s.AddListener(d)
		for _, act := range corpus.Trace(a, seed, 120) {
			s.Perform(act)
			s.Idle(simclock.Second)
		}
		d.Detach()
	}
}
