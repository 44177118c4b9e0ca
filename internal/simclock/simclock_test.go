package simclock

import (
	"sort"
	"testing"
	"testing/quick"

	"hangdoctor/internal/simrand"
)

func TestOrdering(t *testing.T) {
	c := New()
	var order []int
	c.At(30, func() { order = append(order, 3) })
	c.At(10, func() { order = append(order, 1) })
	c.At(20, func() { order = append(order, 2) })
	if _, drained := c.RunUntilIdle(100); !drained {
		t.Fatal("queue not drained")
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if c.Now() != 30 {
		t.Fatalf("Now = %d, want 30", c.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(100, func() { order = append(order, i) })
	}
	c.RunUntilIdle(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	c := New()
	fired := false
	e := c.At(10, func() { fired = true })
	c.Cancel(e)
	c.RunUntilIdle(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel and zero-handle cancel are no-ops.
	c.Cancel(e)
	c.Cancel(Handle{})
}

// TestStaleHandleCancelIsNoop fires or cancels an event, lets a newer event
// take its slot, then cancels through the old handle: the newer event must
// still fire.
func TestStaleHandleCancelIsNoop(t *testing.T) {
	for _, fire := range []bool{true, false} {
		c := New()
		old := c.At(1, func() {})
		if fire {
			c.Step()
		} else {
			c.Cancel(old)
		}
		ran := false
		newer := c.At(2, func() { ran = true })
		if newer.slot != old.slot {
			t.Fatalf("fire=%v: newer event took slot %d, not the freed slot %d", fire, newer.slot, old.slot)
		}
		c.Cancel(old)
		if c.Pending(old) || !c.Pending(newer) {
			t.Fatalf("fire=%v: Pending(old)=%v Pending(newer)=%v, want false, true", fire, c.Pending(old), c.Pending(newer))
		}
		c.RunUntilIdle(10)
		if !ran {
			t.Fatalf("fire=%v: Cancel through a stale handle cancelled the slot's newer event", fire)
		}
	}
}

// TestSelfCancelIsNoop cancels the firing event from inside its own
// callback, after the callback scheduled a new event into the freed slot.
func TestSelfCancelIsNoop(t *testing.T) {
	c := New()
	var self Handle
	next := false
	self = c.At(5, func() {
		c.After(1, func() { next = true })
		c.Cancel(self)
	})
	c.RunUntilIdle(10)
	if !next {
		t.Fatal("a self-cancel from inside the callback cancelled the event it scheduled")
	}
}

// TestWarmClockZeroAlloc pins the value-event design: once the slot table
// has grown, scheduling, firing and cancelling allocate nothing.
func TestWarmClockZeroAlloc(t *testing.T) {
	c := New()
	fn := func() {}
	for i := 0; i < 8; i++ {
		c.After(Duration(i), fn)
	}
	c.RunUntilIdle(100)
	if n := testing.AllocsPerRun(100, func() {
		c.At(c.Now()+1, fn)
		c.Step()
	}); n != 0 {
		t.Errorf("warm At+Step allocates %.1f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		c.Cancel(c.After(7, fn))
	}); n != 0 {
		t.Errorf("warm After+Cancel allocates %.1f objects, want 0", n)
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	c := New()
	var fired []int
	var events []Handle
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, c.At(Time(i*10), func() { fired = append(fired, i) }))
	}
	// Cancel every odd event.
	for i := 1; i < 20; i += 2 {
		c.Cancel(events[i])
	}
	c.RunUntilIdle(100)
	if len(fired) != 10 {
		t.Fatalf("fired %d events, want 10: %v", len(fired), fired)
	}
	for idx, v := range fired {
		if v != idx*2 {
			t.Fatalf("wrong events fired: %v", fired)
		}
	}
}

func TestAfter(t *testing.T) {
	c := New()
	c.At(5, func() {
		c.After(10, func() {
			if c.Now() != 15 {
				t.Fatalf("After fired at %d, want 15", c.Now())
			}
		})
	})
	c.RunUntilIdle(10)
}

func TestSchedulingInPastPanics(t *testing.T) {
	c := New()
	c.At(100, func() {})
	c.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	c.At(50, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil fn")
		}
	}()
	New().At(1, nil)
}

func TestRunUntil(t *testing.T) {
	c := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		c.At(at, func() { fired = append(fired, at) })
	}
	c.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20", fired)
	}
	if c.Now() != 25 {
		t.Fatalf("Now = %d, want 25", c.Now())
	}
	c.RunUntil(40) // inclusive boundary
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all four", fired)
	}
}

func TestRunUntilIdleBound(t *testing.T) {
	c := New()
	var reschedule func()
	n := 0
	reschedule = func() {
		n++
		c.After(1, reschedule)
	}
	c.At(0, reschedule)
	fired, drained := c.RunUntilIdle(50)
	if drained {
		t.Fatal("self-rescheduling loop reported drained")
	}
	if fired != 50 {
		t.Fatalf("fired = %d, want 50", fired)
	}
}

// TestHeapPropertyRandomized checks, with random schedules (many of them at
// equal times) and cancellations, some made while events fire and some
// through handles whose slot was already reused, that the surviving events
// fire in exactly the order of a reference sorted by (time, scheduling
// order).
func TestHeapPropertyRandomized(t *testing.T) {
	rng := simrand.New(99)
	f := func(seed uint16) bool {
		r := rng.Derive(string(rune(seed)))
		c := New()
		type ev struct {
			at        Time
			id        int
			h         Handle
			cancelled bool
		}
		var evs []*ev
		var fired []int
		schedule := func(at Time) {
			e := &ev{at: at, id: len(evs)}
			e.h = c.At(at, func() { fired = append(fired, e.id) })
			evs = append(evs, e)
		}
		cancel := func(e *ev) {
			if c.Pending(e.h) {
				e.cancelled = true
			}
			c.Cancel(e.h)
		}
		n := 5 + r.Intn(50)
		for i := 0; i < n; i++ {
			// Times in [0, 40) force plenty of same-time ties.
			schedule(Time(r.Int63n(40)))
		}
		for _, e := range evs {
			if r.Bool(0.33) {
				cancel(e)
			}
		}
		// Interleave firing with more scheduling and cancelling, so freed
		// slots are reused and stale handles get cancelled.
		for c.Len() > 0 && r.Bool(0.9) {
			c.Step()
			schedule(c.Now() + Time(r.Int63n(20)))
			cancel(evs[r.Intn(len(evs))])
		}
		c.RunUntilIdle(10000)
		var want []*ev
		for _, e := range evs {
			if !e.cancelled {
				want = append(want, e)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].id < want[j].id
		})
		if len(fired) != len(want) {
			return false
		}
		for i, e := range want {
			if fired[i] != e.id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{1500 * Millisecond, "1.500s"},
		{250 * Millisecond, "250.00ms"},
		{42 * Microsecond, "42.0us"},
		{17, "17ns"},
	}
	for _, tc := range cases {
		if got := tc.d.String(); got != tc.want {
			t.Errorf("(%d).String() = %q, want %q", int64(tc.d), got, tc.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	var base Time = 1000
	if base.Add(500) != 1500 {
		t.Fatal("Add failed")
	}
	if Time(1500).Sub(base) != 500 {
		t.Fatal("Sub failed")
	}
}
