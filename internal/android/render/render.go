// Package render models the Android render thread introduced in Android 5.0,
// which the paper's S-Checker pairs with the main thread: "when there is no
// soft hang bug, the main thread executes mostly UI-related jobs and
// generates a lot of work for the render thread" (§3.3.1). UI operations on
// the main thread post frame batches here; the render thread consumes them
// paced by the 60 Hz vsync, burning CPU and generating context switches and
// page faults of its own. The main-minus-render counter *difference* is what
// separates soft hang bugs (main busy, render idle) from heavy UI work (main
// busy, render busier).
package render

import (
	"hangdoctor/internal/cpu"
	"hangdoctor/internal/simclock"
)

// VsyncPeriod is the 60 Hz display refresh interval.
const VsyncPeriod = simclock.Duration(16_666_667)

// FrameBatch is a block of rendering work posted by a main-thread UI
// operation: Frames frames, each costing PerFrame of render-thread CPU at
// the event rates *Rates (shared, not copied; nil accrues none).
type FrameBatch struct {
	Frames   int
	PerFrame simclock.Duration
	Rates    *cpu.Rates
}

// Thread is the render thread plus its frame pump.
type Thread struct {
	clk    *simclock.Clock
	thread *cpu.Thread

	pending []FrameBatch
	active  bool
	pumpFn  func() // pump, bound once
}

// New creates the render thread on sched.
func New(sched *cpu.Scheduler) *Thread {
	r := &Thread{
		clk:    sched.Clock(),
		thread: sched.NewThread("RenderThread"),
	}
	r.pumpFn = r.pump
	return r
}

// CPUThread exposes the underlying scheduler thread for perf attachment.
func (r *Thread) CPUThread() *cpu.Thread { return r.thread }

// Idle reports whether all posted frames have been rendered.
func (r *Thread) Idle() bool { return !r.active && len(r.pending) == 0 }

// PendingFrames returns the number of frames queued behind the one
// currently in flight (the pump hands a frame to the thread as soon as it
// is posted, so an otherwise-empty queue reports 0 while that frame waits
// for vsync).
func (r *Thread) PendingFrames() int {
	n := 0
	for _, b := range r.pending {
		n += b.Frames
	}
	return n
}

// Post enqueues a frame batch. Batches with no frames or non-positive cost
// are ignored.
func (r *Thread) Post(b FrameBatch) {
	if b.Frames <= 0 || b.PerFrame <= 0 {
		return
	}
	r.pending = append(r.pending, b)
	if !r.active {
		r.active = true
		r.pump()
	}
}

// pump renders one frame per vsync: wait for the next vsync boundary, do the
// frame's work, then re-enter the pump. Each vsync wait is a voluntary
// context switch on the render thread — the natural cadence that makes a
// busy render thread's switch count scale with frames rendered.
func (r *Thread) pump() {
	if len(r.pending) == 0 {
		r.active = false
		return
	}
	b := &r.pending[0]
	b.Frames--
	frame := cpu.Compute(b.PerFrame, b.Rates, nil)
	if b.Frames == 0 {
		r.pending = r.pending[1:]
	}
	now := r.clk.Now()
	next := nextVsync(now)
	r.thread.Enqueue(
		cpu.BlockUntil(next, nil),
		frame,
		cpu.Call(r.pumpFn),
	)
}

// nextVsync returns the first vsync boundary strictly after now.
func nextVsync(now simclock.Time) simclock.Time {
	n := int64(now)/int64(VsyncPeriod) + 1
	return simclock.Time(n * int64(VsyncPeriod))
}
