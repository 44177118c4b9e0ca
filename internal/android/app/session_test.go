package app

import (
	"testing"
	"testing/quick"

	"hangdoctor/internal/android/api"
	"hangdoctor/internal/cpu"
	"hangdoctor/internal/perf"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

func TestCostModelHelpers(t *testing.T) {
	m := IOHeavy(40*simclock.Millisecond, 5, 20*simclock.Millisecond)
	if got := m.MainDuration(); got != 140*simclock.Millisecond {
		t.Fatalf("MainDuration = %v", got)
	}
	l := m.Light(0.1)
	if l.CPU != 4*simclock.Millisecond {
		t.Fatalf("Light CPU = %v", l.CPU)
	}
	if l.Blocks > 2 {
		t.Fatalf("Light blocks = %d", l.Blocks)
	}
	// Default and custom pre-share.
	if (CostModel{}).preShare() != 0.15 {
		t.Fatal("default preShare wrong")
	}
	if (CostModel{PreShare: 0.3}).preShare() != 0.3 {
		t.Fatal("custom preShare ignored")
	}
}

func TestRatesDerivation(t *testing.T) {
	m := CostModel{InstructionsPerSec: 2e9, MemIntensity: 2, MinorFaultsPerSec: 100, MajorFaultsPerSec: 5}
	r := m.Rates()
	if r.MinorFaults != 100 || r.MajorFaults != 5 {
		t.Fatalf("fault rates = %v/%v", r.MinorFaults, r.MajorFaults)
	}
	if got := r.HW[perf.Instructions.HWIndex()]; got != 2e9 {
		t.Fatalf("instructions rate = %v", got)
	}
	// Mem intensity scales cache misses but not branch instructions.
	m2 := m
	m2.MemIntensity = 4
	r2 := m2.Rates()
	if r2.HW[perf.CacheMisses.HWIndex()] <= r.HW[perf.CacheMisses.HWIndex()] {
		t.Fatal("MemIntensity did not scale cache misses")
	}
	if r2.HW[perf.BranchInstructions.HWIndex()] != r.HW[perf.BranchInstructions.HWIndex()] {
		t.Fatal("MemIntensity leaked into branch instructions")
	}
	// PMUScale multiplies everything micro-architectural.
	m3 := m
	m3.PMUScale = 2
	r3 := m3.Rates()
	if r3.HW[perf.Instructions.HWIndex()] != 2*r.HW[perf.Instructions.HWIndex()] {
		t.Fatal("PMUScale not applied")
	}
	if r3.MinorFaults != r.MinorFaults {
		t.Fatal("PMUScale leaked into kernel fault rates")
	}
}

func TestOpLeafFallback(t *testing.T) {
	op := &Op{Name: "mystery"}
	f := op.LeafFrame()
	if f.Method != "mystery" {
		t.Fatalf("fallback frame = %+v", f)
	}
}

func TestEventExecResponseBeforeDone(t *testing.T) {
	ev := &EventExec{Start: 100}
	if ev.ResponseTime() != 0 {
		t.Fatal("unfinished event reported a response time")
	}
}

func TestSessionPerfConfigDefaults(t *testing.T) {
	reg := api.NewRegistry()
	a := testApp(reg)
	dev := LGV10()
	dev.Registers = 0 // unset: must default
	s, err := NewSession(a, dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PerfConfig().Registers; got != perf.DefaultRegisters {
		t.Fatalf("default registers = %d", got)
	}
	if s.PerfConfig().Noise == nil {
		t.Fatal("noise model missing on a noisy device")
	}
	quiet, _ := NewSession(a, LGV10().Quiet(), 1)
	if quiet.PerfConfig().Noise != nil {
		t.Fatal("Quiet device still has measurement noise")
	}
}

func TestPerformReentryPanics(t *testing.T) {
	reg := api.NewRegistry()
	a := testApp(reg)
	s, _ := NewSession(a, LGV10().Quiet(), 1)
	s.AddListener(funcListener{onActionStart: func(e *ActionExec) {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Perform accepted")
			}
		}()
		s.Perform(a.Actions[1])
	}})
	s.Perform(a.Actions[0])
}

func TestSessionOnSharedKernel(t *testing.T) {
	reg := api.NewRegistry()
	a1 := testApp(reg)
	a2 := testApp(reg)
	a2.Name = "TestApp2"
	clk := simclock.New()
	sched := cpu.New(clk, 2)
	rng := simrand.New(9)
	s1, err := NewSessionOn(clk, sched, a1, LGV10().Quiet(), rng)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSessionOn(clk, sched, a2, LGV10().Quiet(), rng)
	if err != nil {
		t.Fatal(err)
	}
	e1 := s1.Perform(a1.MustAction("Open Camera"))
	e2 := s2.Perform(a2.MustAction("Open Camera"))
	if e1.ResponseTime() <= 0 || e2.ResponseTime() <= 0 {
		t.Fatal("shared-kernel sessions did not execute")
	}
	// Time is shared: the second action happened after the first.
	if e2.Start < e1.End {
		t.Fatal("shared clock not monotonic across sessions")
	}
}

// TestResponseAtLeastPlannedDuration: an execution's response time can never
// be below the planned main-thread duration of its manifested ops
// (preemption and noise only add).
func TestResponseAtLeastPlannedDuration(t *testing.T) {
	reg := api.NewRegistry()
	a := testApp(reg)
	s, _ := NewSession(a, LGV10(), 17)
	f := func(pick uint8) bool {
		act := a.Actions[int(pick)%len(a.Actions)]
		exec := s.Perform(act)
		s.Idle(simclock.Second)
		var planned simclock.Duration
		for _, h := range exec.Heavy {
			planned += h.Dur
		}
		return exec.ResponseTime() >= planned*98/100 // integer rounding slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceModels(t *testing.T) {
	for _, dev := range []Device{LGV10(), Nexus5(), GalaxyS3()} {
		if dev.Cores <= 0 || dev.Name == "" {
			t.Errorf("bad device %+v", dev)
		}
	}
	if GalaxyS3().Registers >= LGV10().Registers {
		t.Error("Galaxy S3 should have fewer PMU registers")
	}
	q := LGV10().Quiet()
	if q.BGThreads != 0 || q.NoiseScale != 0 {
		t.Errorf("Quiet() = %+v", q)
	}
}
