// Package trace records the simulation's execution as spans — per-thread
// on-CPU intervals from the scheduler, message dispatches from the looper,
// and user actions from the app session — and exports them in the Chrome
// trace-event JSON format (load in chrome://tracing or Perfetto). It is the
// systrace equivalent for the simulated device: the tool you reach for when
// a soft hang diagnosis looks surprising and you want to see exactly what
// every thread was doing.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/android/looper"
	"hangdoctor/internal/cpu"
	"hangdoctor/internal/simclock"
)

// Span is one closed interval of activity.
type Span struct {
	Name     string
	Category string // "sched", "dispatch", "action"
	ThreadID int
	Thread   string
	Start    simclock.Time
	End      simclock.Time
	// Args carries span metadata (core, desched reason, response time...).
	Args map[string]string
}

// Dur returns the span length.
func (s Span) Dur() simclock.Duration { return s.End.Sub(s.Start) }

// Collector accumulates spans. Attach it to a scheduler with
// cpu.Scheduler.SetTracer, to a looper with AddDispatchHook, and to an app
// session with AddListener — any subset works.
type Collector struct {
	clk *simclock.Clock

	spans []Span
	// open on-CPU span per thread ID.
	running map[int]openSpan
}

type openSpan struct {
	start simclock.Time
	core  int
}

// NewCollector builds a collector over the shared clock.
func NewCollector(clk *simclock.Clock) *Collector {
	return &Collector{clk: clk, running: map[int]openSpan{}}
}

// ThreadScheduled implements cpu.ExecTracer.
func (c *Collector) ThreadScheduled(t *cpu.Thread, coreID int, at simclock.Time) {
	c.running[t.ID] = openSpan{start: at, core: coreID}
}

// ThreadDescheduled implements cpu.ExecTracer.
func (c *Collector) ThreadDescheduled(t *cpu.Thread, at simclock.Time, reason cpu.DeschedReason) {
	open, ok := c.running[t.ID]
	if !ok {
		return
	}
	delete(c.running, t.ID)
	if at <= open.start {
		return // zero-length occupancy (pure Call chains); nothing to plot
	}
	c.spans = append(c.spans, Span{
		Name:     t.Name,
		Category: "sched",
		ThreadID: t.ID,
		Thread:   t.Name,
		Start:    open.start,
		End:      at,
		Args: map[string]string{
			"core":   fmt.Sprintf("%d", open.core),
			"reason": string(reason),
		},
	})
}

// DispatchStart implements looper.DispatchHook.
func (c *Collector) DispatchStart(m *looper.Message, at simclock.Time) {}

// DispatchEnd implements looper.DispatchHook: one span per message.
func (c *Collector) DispatchEnd(m *looper.Message, start, end simclock.Time) {
	c.spans = append(c.spans, Span{
		Name:     m.Name,
		Category: "dispatch",
		ThreadID: -1,
		Thread:   "looper",
		Start:    start,
		End:      end,
	})
}

// ActionStart implements app.Listener.
func (c *Collector) ActionStart(e *app.ActionExec) {}

// EventStart implements app.Listener.
func (c *Collector) EventStart(e *app.ActionExec, ev *app.EventExec) {}

// EventEnd implements app.Listener.
func (c *Collector) EventEnd(e *app.ActionExec, ev *app.EventExec) {}

// ActionEnd implements app.Listener: one span per user action.
func (c *Collector) ActionEnd(e *app.ActionExec) {
	c.spans = append(c.spans, Span{
		Name:     e.Action.UID,
		Category: "action",
		ThreadID: -2,
		Thread:   "actions",
		Start:    e.Start,
		End:      e.End,
		Args: map[string]string{
			"response": e.ResponseTime().String(),
			"seq":      fmt.Sprintf("%d", e.Seq),
		},
	})
}

// Spans returns everything recorded so far, ordered by start time.
func (c *Collector) Spans() []Span {
	out := append([]Span(nil), c.spans...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ThreadID < out[j].ThreadID
	})
	return out
}

// chromeEvent is the Chrome trace-event wire format ("X" complete events,
// timestamps and durations in microseconds).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace serializes all spans as a Chrome trace JSON document.
// Scheduler spans land on their thread rows; dispatch and action spans get
// dedicated rows below them.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	events := make([]chromeEvent, 0, len(c.spans))
	for _, s := range c.Spans() {
		tid := s.ThreadID
		switch s.Category {
		case "dispatch":
			tid = 1000
		case "action":
			tid = 1001
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  s.Category,
			Ph:   "X",
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.Dur()) / 1e3,
			PID:  1,
			TID:  tid,
			Args: s.Args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: events})
}
