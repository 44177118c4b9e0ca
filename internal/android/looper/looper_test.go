package looper

import (
	"strings"
	"testing"

	"hangdoctor/internal/cpu"
	"hangdoctor/internal/simclock"
)

type recordingHook struct {
	starts []simclock.Time
	ends   []simclock.Time
	names  []string
}

func (h *recordingHook) DispatchStart(m *Message, at simclock.Time) {
	h.starts = append(h.starts, at)
	h.names = append(h.names, m.Name)
}

func (h *recordingHook) DispatchEnd(m *Message, start, end simclock.Time) {
	h.ends = append(h.ends, end)
}

func setup() (*simclock.Clock, *cpu.Scheduler, *Looper) {
	clk := simclock.New()
	s := cpu.New(clk, 2)
	return clk, s, New(s, "main")
}

func TestDispatchResponseTime(t *testing.T) {
	clk, _, l := setup()
	h := &recordingHook{}
	l.AddDispatchHook(h)
	l.Post(&Message{Name: "evt", Segments: []cpu.Segment{cpu.Compute(123*simclock.Millisecond, nil, nil)}})
	clk.RunUntilIdle(10000)
	if len(h.starts) != 1 || len(h.ends) != 1 {
		t.Fatalf("hook fired %d/%d times", len(h.starts), len(h.ends))
	}
	rt := h.ends[0].Sub(h.starts[0])
	if rt != 123*simclock.Millisecond {
		t.Fatalf("response time = %v, want 123ms", rt)
	}
}

func TestFIFOOrderAndNoInterleaving(t *testing.T) {
	clk, _, l := setup()
	h := &recordingHook{}
	l.AddDispatchHook(h)
	for _, name := range []string{"a", "b", "c"} {
		l.Post(&Message{Name: name, Segments: []cpu.Segment{cpu.Compute(10*simclock.Millisecond, nil, nil)}})
	}
	clk.RunUntilIdle(10000)
	if strings.Join(h.names, "") != "abc" {
		t.Fatalf("dispatch order = %v", h.names)
	}
	// Message k starts exactly when k-1 ends (serial execution).
	for i := 1; i < 3; i++ {
		if h.starts[i] != h.ends[i-1] {
			t.Fatalf("message %d started at %v, previous ended at %v", i, h.starts[i], h.ends[i-1])
		}
	}
}

func TestBackToBackMessagesNoExtraSwitches(t *testing.T) {
	clk, _, l := setup()
	for i := 0; i < 5; i++ {
		l.Post(&Message{Name: "m", Segments: []cpu.Segment{cpu.Compute(simclock.Millisecond, nil, nil)}})
	}
	clk.RunUntilIdle(10000)
	// A queue of back-to-back messages drains with a single park at the end,
	// like a real Looper.loop.
	if got := l.Thread().Counters().VoluntaryCtxSwitches; got != 1 {
		t.Fatalf("VoluntaryCtxSwitches = %d, want 1", got)
	}
}

func TestPostWhileDispatching(t *testing.T) {
	clk, _, l := setup()
	h := &recordingHook{}
	l.AddDispatchHook(h)
	l.Post(&Message{Name: "first", Segments: []cpu.Segment{
		cpu.Call(func() {
			l.Post(&Message{Name: "nested", Segments: []cpu.Segment{cpu.Compute(simclock.Millisecond, nil, nil)}})
		}),
		cpu.Compute(5*simclock.Millisecond, nil, nil),
	}})
	clk.RunUntilIdle(10000)
	if len(h.names) != 2 || h.names[0] != "first" || h.names[1] != "nested" {
		t.Fatalf("dispatch order = %v", h.names)
	}
	// Nested message must start only after the first finishes.
	if h.starts[1] != h.ends[0] {
		t.Fatalf("nested started at %v, first ended at %v", h.starts[1], h.ends[0])
	}
}

func TestIdleAndQueueLen(t *testing.T) {
	clk, _, l := setup()
	if !l.Idle() {
		t.Fatal("fresh looper should be idle")
	}
	l.Post(&Message{Name: "a", Segments: []cpu.Segment{cpu.Compute(20*simclock.Millisecond, nil, nil)}})
	l.Post(&Message{Name: "b", Segments: []cpu.Segment{cpu.Compute(20*simclock.Millisecond, nil, nil)}})
	if l.Idle() {
		t.Fatal("looper with queued work reported idle")
	}
	clk.At(5*1e6, func() {
		if len(l.queue) != 1 {
			t.Errorf("queue length during first message = %d, want 1", len(l.queue))
		}
		if l.Current() == nil || l.Current().Name != "a" {
			t.Errorf("Current = %v", l.Current())
		}
	})
	clk.RunUntilIdle(10000)
	if !l.Idle() {
		t.Fatal("drained looper should be idle")
	}
	if l.Current() != nil {
		t.Fatal("Current should be nil after drain")
	}
}

func TestBlockingSegmentsKeepResponseTimeInclusive(t *testing.T) {
	clk, _, l := setup()
	h := &recordingHook{}
	l.AddDispatchHook(h)
	l.Post(&Message{Name: "io", Segments: []cpu.Segment{
		cpu.Compute(10*simclock.Millisecond, nil, nil),
		cpu.Block(90*simclock.Millisecond, nil),
		cpu.Compute(10*simclock.Millisecond, nil, nil),
	}})
	clk.RunUntilIdle(10000)
	rt := h.ends[0].Sub(h.starts[0])
	if rt != 110*simclock.Millisecond {
		t.Fatalf("response time = %v, want 110ms (block time counts)", rt)
	}
}

func TestPostNilPanics(t *testing.T) {
	_, _, l := setup()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Post(nil)
}
