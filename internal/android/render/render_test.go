package render

import (
	"testing"

	"hangdoctor/internal/cpu"
	"hangdoctor/internal/simclock"
)

func setup() (*simclock.Clock, *Thread) {
	clk := simclock.New()
	s := cpu.New(clk, 2)
	return clk, New(s)
}

func TestVsyncPacing(t *testing.T) {
	clk, r := setup()
	r.Post(FrameBatch{Frames: 3, PerFrame: 4 * simclock.Millisecond})
	clk.RunUntilIdle(10000)
	// Frame k renders after vsync boundary k: last work ends after the third
	// vsync plus the frame cost.
	wantEnd := simclock.Time(3*VsyncPeriod) + simclock.Time(4*simclock.Millisecond)
	if clk.Now() != wantEnd {
		t.Fatalf("render finished at %d, want %d", clk.Now(), wantEnd)
	}
	c := r.CPUThread().Counters()
	if c.TaskClock != int64(12*simclock.Millisecond) {
		t.Fatalf("render task-clock = %d, want 12ms", c.TaskClock)
	}
}

func TestSwitchesScaleWithFrames(t *testing.T) {
	clk, r := setup()
	const frames = 10
	r.Post(FrameBatch{Frames: frames, PerFrame: 2 * simclock.Millisecond})
	clk.RunUntilIdle(100000)
	c := r.CPUThread().Counters()
	// One voluntary switch per vsync wait plus the final park.
	if c.VoluntaryCtxSwitches != frames+1 {
		t.Fatalf("VoluntaryCtxSwitches = %d, want %d", c.VoluntaryCtxSwitches, frames+1)
	}
}

func TestMultipleBatchesQueue(t *testing.T) {
	clk, r := setup()
	r.Post(FrameBatch{Frames: 2, PerFrame: simclock.Millisecond})
	r.Post(FrameBatch{Frames: 3, PerFrame: simclock.Millisecond})
	// The first frame is already in flight; four remain queued.
	if got := r.PendingFrames(); got != 4 {
		t.Fatalf("PendingFrames = %d, want 4", got)
	}
	clk.RunUntilIdle(100000)
	if !r.Idle() {
		t.Fatal("render thread should be idle after draining")
	}
	if got := r.CPUThread().Counters().TaskClock; got != int64(5*simclock.Millisecond) {
		t.Fatalf("task-clock = %d, want 5ms", got)
	}
}

func TestRatesApplied(t *testing.T) {
	clk, r := setup()
	var rates cpu.Rates
	rates.MinorFaults = 10000
	r.Post(FrameBatch{Frames: 5, PerFrame: 10 * simclock.Millisecond, Rates: &rates})
	clk.RunUntilIdle(100000)
	// 50ms of render CPU at 10k faults/s = 500 faults.
	if got := r.CPUThread().Counters().MinorFaults; got != 500 {
		t.Fatalf("render MinorFaults = %d, want 500", got)
	}
}

func TestEmptyAndInvalidBatchesIgnored(t *testing.T) {
	clk, r := setup()
	r.Post(FrameBatch{Frames: 0, PerFrame: simclock.Millisecond})
	r.Post(FrameBatch{Frames: 3, PerFrame: 0})
	if !r.Idle() {
		t.Fatal("invalid batches must not activate the pump")
	}
	clk.RunUntilIdle(100)
	if got := r.CPUThread().Counters().TaskClock; got != 0 {
		t.Fatalf("task-clock = %d, want 0", got)
	}
}

func TestPostWhileActive(t *testing.T) {
	clk, r := setup()
	r.Post(FrameBatch{Frames: 2, PerFrame: simclock.Millisecond})
	clk.At(simclock.Time(VsyncPeriod), func() {
		r.Post(FrameBatch{Frames: 2, PerFrame: simclock.Millisecond})
	})
	clk.RunUntilIdle(100000)
	if got := r.CPUThread().Counters().TaskClock; got != int64(4*simclock.Millisecond) {
		t.Fatalf("task-clock = %d, want 4ms", got)
	}
	if !r.Idle() {
		t.Fatal("not idle after drain")
	}
}

func TestNextVsyncBoundary(t *testing.T) {
	if got := nextVsync(0); got != simclock.Time(VsyncPeriod) {
		t.Fatalf("nextVsync(0) = %d", got)
	}
	// Exactly on a boundary: strictly after.
	if got := nextVsync(simclock.Time(VsyncPeriod)); got != simclock.Time(2*VsyncPeriod) {
		t.Fatalf("nextVsync(vsync) = %d", got)
	}
}
