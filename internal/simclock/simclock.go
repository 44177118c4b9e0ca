// Package simclock implements the virtual time base of the simulation: a
// discrete-event clock with an ordered event queue and cancellable timers.
//
// Every component of the simulated device (CPU scheduler, looper, render
// thread, perf sessions, detectors) shares one Clock. Time only advances when
// events run, so an entire 60-day field study executes in milliseconds of
// wall time and is bit-for-bit reproducible.
package simclock

import "fmt"

// Time is an absolute simulated timestamp in nanoseconds since device boot.
type Time int64

// Duration is a span of simulated time in nanoseconds. It mirrors
// time.Duration's unit so constants read naturally.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
	Day                  = 24 * Hour
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t - u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Milliseconds reports d in milliseconds as a float for display.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds reports d in seconds as a float for display.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats a duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d >= Second || d <= -Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond || d <= -Millisecond:
		return fmt.Sprintf("%.2fms", d.Milliseconds())
	case d >= Microsecond || d <= -Microsecond:
		return fmt.Sprintf("%.1fus", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Handle names one scheduled event so that it can be cancelled. It is a
// (slot, generation) pair: the event's slot in the clock's table and its
// sequence number, which no other event of the clock ever gets. A handle
// whose event fired or was cancelled therefore never matches the slot's
// next occupant, and the zero Handle names no event.
type Handle struct {
	slot int32
	seq  uint64
}

// Clock is a discrete-event virtual clock. The zero value is ready to use
// and starts at time 0.
//
// Pending events are values: a 4-ary min-heap of (time, seq, slot) entries
// over a table of slots that hold the callbacks, with a free list of slots,
// so scheduling, firing and cancelling allocate nothing once the table has
// grown to the simulation's peak event count.
type Clock struct {
	now   Time
	seq   uint64
	heap  []entry
	slots []slot
	free  []int32
}

// entry is one pending event in heap order.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

// before orders events by (time, scheduling order), so simultaneous events
// fire in the order they were scheduled and the simulation is deterministic.
func (e entry) before(o entry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// slot holds a pending event's callback. seq is the occupying event's
// sequence number, 0 while the slot is free; pos is its heap index.
type slot struct {
	fn  func()
	seq uint64
	pos int32
}

// New returns a clock starting at time 0.
func New() *Clock { return &Clock{} }

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// At schedules fn to run at time t. Scheduling in the past (t < Now) panics:
// in a discrete-event simulation that is always a logic bug and silently
// clamping it would hide causality violations. Scheduling at exactly Now is
// allowed and runs after currently queued events at Now.
func (c *Clock) At(t Time, fn func()) Handle {
	if t < c.now {
		panic(fmt.Sprintf("simclock: scheduling event at %d before now %d", t, c.now))
	}
	if fn == nil {
		panic("simclock: nil event function")
	}
	c.seq++
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		i = int32(len(c.slots))
		c.slots = append(c.slots, slot{})
	}
	c.slots[i] = slot{fn: fn, seq: c.seq}
	c.heap = append(c.heap, entry{at: t, seq: c.seq, slot: i})
	c.up(len(c.heap) - 1)
	return Handle{slot: i, seq: c.seq}
}

// After schedules fn to run d from now. Negative d panics via At.
func (c *Clock) After(d Duration, fn func()) Handle {
	return c.At(c.now.Add(d), fn)
}

// Pending reports whether h's event is still queued: neither fired nor
// cancelled.
func (c *Clock) Pending(h Handle) bool {
	return h.seq != 0 && int(h.slot) < len(c.slots) && c.slots[h.slot].seq == h.seq
}

// Cancel removes h's event from the queue. Cancelling an event that already
// fired or was cancelled, or the zero Handle, is a no-op, so callers can
// cancel unconditionally in cleanup paths.
func (c *Clock) Cancel(h Handle) {
	if !c.Pending(h) {
		return
	}
	c.removeAt(int(c.slots[h.slot].pos))
	c.release(h.slot)
}

// Len reports the number of pending events.
func (c *Clock) Len() int { return len(c.heap) }

// Step fires the earliest pending event, advancing Now to its timestamp.
// It returns false if the queue is empty. The event's slot is released
// before its callback runs, so the callback may schedule into it and a
// Cancel through the fired handle is a no-op.
func (c *Clock) Step() bool {
	if len(c.heap) == 0 {
		return false
	}
	e := c.heap[0]
	c.removeAt(0)
	c.now = e.at
	fn := c.slots[e.slot].fn
	c.release(e.slot)
	fn()
	return true
}

// RunUntil fires events until the queue is empty or the next event is after
// t, then advances Now to exactly t. Events scheduled at t itself do run.
func (c *Clock) RunUntil(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: RunUntil target %d before now %d", t, c.now))
	}
	for len(c.heap) > 0 && c.heap[0].at <= t {
		c.Step()
	}
	c.now = t
}

// RunUntilIdle fires events until the queue is empty. maxEvents bounds the
// number of events processed to catch runaway self-rescheduling loops; it
// returns the number of events fired and whether the queue drained.
func (c *Clock) RunUntilIdle(maxEvents int) (fired int, drained bool) {
	for fired < maxEvents {
		if !c.Step() {
			return fired, true
		}
		fired++
	}
	return fired, c.Len() == 0
}

// release returns slot i to the free list.
func (c *Clock) release(i int32) {
	c.slots[i] = slot{}
	c.free = append(c.free, i)
}

// removeAt deletes the heap entry at index i, filling the hole with the last
// entry and restoring heap order around it.
func (c *Clock) removeAt(i int) {
	n := len(c.heap) - 1
	last := c.heap[n]
	c.heap = c.heap[:n]
	if i == n {
		return
	}
	c.heap[i] = last
	if i > 0 && last.before(c.heap[(i-1)/4]) {
		c.up(i)
	} else {
		c.down(i)
	}
}

// place stores e at heap index i and records the index in e's slot.
func (c *Clock) place(i int, e entry) {
	c.heap[i] = e
	c.slots[e.slot].pos = int32(i)
}

// up moves the entry at i toward the root until its parent comes before it.
func (c *Clock) up(i int) {
	e := c.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(c.heap[p]) {
			break
		}
		c.place(i, c.heap[p])
		i = p
	}
	c.place(i, e)
}

// down moves the entry at i away from the root until it comes before all of
// its (up to four) children.
func (c *Clock) down(i int) {
	h := c.heap
	e := h[i]
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		m := first
		for j := first + 1; j < first+4 && j < len(h); j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(e) {
			break
		}
		c.place(i, h[m])
		i = m
	}
	c.place(i, e)
}
