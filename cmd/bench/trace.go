package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// clock stamps every event of one measured phase as an offset from the
// phase start, so spans, acks and poll rounds recorded on different
// goroutines share one monotonic time base.
type clock struct{ epoch time.Time }

func newClock() *clock { return &clock{epoch: time.Now()} }

func (c *clock) now() time.Duration { return time.Since(c.epoch) }

// reset moves the epoch to now: the measured phase starts.
func (c *clock) reset() { c.epoch = time.Now() }

// span is one wall-clock interval recorded around a call into a layer.
// Spans of one upload share its upload ID; a child names its enclosing
// span by index so self times can be derived.
type span struct {
	name   string
	lane   int
	start  time.Duration
	end    time.Duration
	upload int64 // -1 when the span belongs to no single upload
	parent int   // index of the enclosing span, -1 at top level
	bytes  int64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs skip all span bookkeeping.
type tracer struct {
	mu    sync.Mutex
	spans []span
	lanes map[int]string
}

func newTracer() *tracer { return &tracer{lanes: map[int]string{}} }

// reserve allocates a slot for a span whose end is not known yet, so its
// children can name it as their parent before it is filled in with set.
func (t *tracer) reserve() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{parent: -1, upload: -1})
	return len(t.spans) - 1
}

func (t *tracer) set(i int, s span) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i] = s
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// clear drops every span recorded so far; lane names stay.
func (t *tracer) clear() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) nameLane(lane int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lanes[lane] = name
	t.mu.Unlock()
}

// Lanes group spans into Chrome trace rows.
const (
	laneDriver  = 0  // + generator index: sessions, encodes, upload attempts
	lanePoller  = 10 // poll rounds
	laneFetch   = 11 // + node index: snapshot fetches of a round
	laneVisible = 20 // + generator index: ack → visible in the region
)

// selfTime is one row of the per-name self-time table.
type selfTime struct {
	name  string
	count int
	total time.Duration
	self  time.Duration
}

// selfTimes sums, per span name, each span's duration and its self time:
// the duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() []selfTime {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	rows := map[string]*selfTime{}
	for i, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &selfTime{name: s.name}
			rows[s.name] = r
		}
		r.count++
		r.total += s.dur()
		r.self += s.dur() - covered(s, children[i])
	}
	out := make([]selfTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return total + curE - curS
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as one Chrome trace-event document (load
// it in chrome://tracing or Perfetto): a process per workload, a row per
// lane, one complete event per span in microseconds since the start of
// that workload's measured phase.
func writeChrome(w io.Writer, traces []namedTrace) error {
	var events []chromeEvent
	for i, nt := range traces {
		pid := i + 1
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": nt.workload}})
		for lane, name := range nt.tr.lanes {
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: pid, TID: lane,
				Args: map[string]any{"name": name}})
		}
		for _, s := range nt.tr.spans {
			ev := chromeEvent{Name: s.name, Cat: nt.workload, Ph: "X", PID: pid, TID: s.lane,
				Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3}
			if s.upload >= 0 || s.bytes > 0 {
				ev.Args = map[string]any{}
				if s.upload >= 0 {
					ev.Args["upload"] = s.upload
				}
				if s.bytes > 0 {
					ev.Args["bytes"] = s.bytes
				}
			}
			events = append(events, ev)
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}); err != nil {
		return fmt.Errorf("write chrome trace: %w", err)
	}
	return nil
}
