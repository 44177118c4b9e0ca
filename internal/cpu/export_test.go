package cpu

import (
	"math"

	"hangdoctor/internal/simclock"
)

// ChargeBoth charges two threads computing at r alike, one through charge
// and one through chargeTwoPass, the next of dts at a time, and returns
// both threads' counters.
func ChargeBoth(r *Rates, dts []simclock.Duration) (onePass, twoPass Counters) {
	probe := func() *Thread {
		return &Thread{prog: []Segment{Compute(math.MaxInt64, r, nil)}}
	}
	a, b := probe(), probe()
	var now simclock.Time
	for _, dt := range dts {
		now = now.Add(dt)
		a.charge(now)
		b.chargeTwoPass(now)
	}
	return a.counters, b.counters
}

// chargeTwoPass is the reference for charge: the scheduler's charge before
// it accrued and flushed each slot in one pass. It accrues every rated slot
// first, then flushAccums moves whole events out of every accumulator.
func (t *Thread) chargeTwoPass(now simclock.Time) {
	dt := now.Sub(t.chargedUntil)
	if dt <= 0 {
		return
	}
	t.chargedUntil = now
	t.remaining -= dt
	t.sliceLeft -= dt
	ns := int64(dt)
	t.counters.TaskClock += ns
	t.counters.CPUClock += ns
	if seg := t.current(); seg != nil && seg.kind == segCompute && seg.rates != nil {
		r := seg.rates
		sec := float64(ns) / 1e9
		t.minorAccum += r.MinorFaults * sec
		t.majorAccum += r.MajorFaults * sec
		for i := range r.HW {
			if r.HW[i] != 0 {
				t.hwAccum[i] += r.HW[i] * sec
			}
		}
		t.flushAccums()
	}
}

// flushAccums moves whole events from float accumulators into counters.
func (t *Thread) flushAccums() {
	if t.minorAccum >= 1 {
		n := int64(t.minorAccum)
		t.counters.MinorFaults += n
		t.minorAccum -= float64(n)
	}
	if t.majorAccum >= 1 {
		n := int64(t.majorAccum)
		t.counters.MajorFaults += n
		t.majorAccum -= float64(n)
	}
	for i := range t.hwAccum {
		if t.hwAccum[i] >= 1 {
			n := int64(t.hwAccum[i])
			t.counters.HW[i] += n
			t.hwAccum[i] -= float64(n)
		}
	}
}
