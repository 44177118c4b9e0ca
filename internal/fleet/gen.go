package fleet

import (
	"fmt"

	"hangdoctor/internal/core"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

// SyntheticUpload builds a deterministic device report for load generation
// and benchmarks: `entries` diagnosed root causes drawn from a bounded pool
// so that different devices overlap on the hot causes (the realistic fleet
// shape — merging mostly hits existing entries) while the tail stays unique.
// The same (seed, device, entries) always yields the same report.
func SyntheticUpload(seed int64, device string, entries int) *core.Report {
	rng := simrand.New(uint64(seed))
	rep := core.NewReport()
	for i := 0; i < entries; i++ {
		app := fmt.Sprintf("app-%02d", rng.Intn(8))
		action := fmt.Sprintf("%s/Action-%02d", app, rng.Intn(24))
		// File/line/kind are functions of the root cause, as with real
		// diagnoses (the registry maps a method to one source location):
		// merge commutativity depends on entries of one identity agreeing
		// on their metadata.
		op := rng.Intn(200)
		diag := core.Diagnosis{
			RootCause:  fmt.Sprintf("com.example.blocking.Op%03d.run", op),
			File:       fmt.Sprintf("Op%03d.java", op),
			Line:       1 + op*7%899,
			Occurrence: 0.5 + rng.Float64()/2,
			ViaCaller:  op%17 == 0,
		}
		rt := simclock.Duration(100+rng.Intn(1900)) * simclock.Millisecond
		for h := 0; h < 1+rng.Intn(3); h++ {
			rep.Add(app, device, action, diag, rt)
		}
	}
	return rep
}
