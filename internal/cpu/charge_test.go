package cpu_test

import (
	"testing"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/cpu"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

// TestChargeMatchesTwoPass is a randomized differential of the scheduler's
// one-pass charge against the two-pass reference it replaced: for every
// rate vector the corpus's cost models derive, PMU-scaled ones included,
// random runs of charges, from a nanosecond to a few timeslices each, must
// leave exactly the same counters.
func TestChargeMatchesTwoPass(t *testing.T) {
	c := corpus.Build()
	var rates []cpu.Rates
	scaled := 0
	add := func(m app.CostModel) {
		rates = append(rates, m.Rates())
		if m.PMUScale != 0 && m.PMUScale != 1 {
			scaled++
		}
	}
	for _, a := range append(append([]*app.App{}, c.Apps...), c.Async...) {
		for _, act := range a.Actions {
			for _, op := range act.Ops() {
				add(op.Heavy)
				if op.Light != nil {
					add(*op.Light)
				}
				if op.Async != nil {
					add(op.Async.Task)
					add(op.Async.Completion)
				}
			}
		}
	}
	if scaled == 0 {
		t.Fatal("no PMU-scaled rate vector in the corpus")
	}
	rng := simrand.New(5)
	dts := make([]simclock.Duration, 0, 64)
	for i := range rates {
		for run := 0; run < 8; run++ {
			dts = dts[:0]
			for k := rng.Intn(64); k >= 0; k-- {
				// Log-uniform between 1 ns and ~33 ms.
				dts = append(dts, simclock.Duration(1+rng.Int63n(int64(1)<<(1+rng.Intn(25)))))
			}
			if got, want := cpu.ChargeBoth(&rates[i], dts); got != want {
				t.Fatalf("rate vector %d, charges %v: one pass %+v, two passes %+v", i, dts, got, want)
			}
		}
	}
	t.Logf("%d rate vectors (%d PMU-scaled), 8 random charge runs each", len(rates), scaled)
}
