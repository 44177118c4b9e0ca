package chaos

import (
	"fmt"
	"testing"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fault"
)

// differential runs one differential and fails t on a harness error or a
// broken contract.
func differential(t *testing.T, rates fault.StorageRates, seed uint64, uploads int) Recovery {
	t.Helper()
	r, err := Differential(rates, seed, uploads)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if err := r.Check(); err != nil {
		t.Errorf("seed %d: %v (%+v)", seed, err, r)
	}
	t.Logf("injected %d refused %d corrupt %d truncated %d", r.Injected, r.Refused, r.Corrupt, r.Truncated)
	return r
}

// TestCrashRecoveryDifferential sweeps crash points on a healthy disk.
// Some crashes must land after a mid-run compaction, so recovery also
// replays a base record plus the tail behind it.
func TestCrashRecoveryDifferential(t *testing.T) {
	t.Parallel()
	var compactions int64
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			compactions += differential(t, fault.StorageRates{}, seed, 48).Compactions
		})
	}
	if compactions == 0 {
		t.Error("no crashed run compacted mid-run")
	}
}

// TestCrashRecoveryUnderStorageFaults repeats the differential while the
// loaded node writes through torn writes, fsync failures and intermittent
// disk-full. Faulted uploads are simply not acknowledged; the contract is
// the same. Each case loads enough uploads that a fault is all but
// certain: a write fault is drawn per upload record, a fsync failure only
// once per barrier of up to four uploads (under -race, fsync-fail at 128
// uploads injected nothing in 2 of 120 runs, at 256 in none of 150).
func TestCrashRecoveryUnderStorageFaults(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		rates   fault.StorageRates
		uploads int
	}{
		{"torn-write", fault.StorageRates{TornWrite: 0.05}, 128},
		{"fsync-fail", fault.StorageRates{FsyncFail: 0.05}, 256},
		{"disk-full", fault.StorageRates{DiskFull: 0.05}, 128},
		{"mixed", fault.StorageRates{TornWrite: 0.03, FsyncFail: 0.03, DiskFull: 0.02}, 128},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
					t.Parallel()
					differential(t, tc.rates, seed, tc.uploads)
				})
			}
		})
	}
}

// TestReplayUnderShortReads: short reads (contract-legal partial Reads)
// during replay are transparent: nothing acknowledged is lost.
func TestReplayUnderShortReads(t *testing.T) {
	t.Parallel()
	differential(t, fault.StorageRates{ShortRead: 0.9}, 3, 48)
}

// TestReplayUnderCorruptReads: bit rot during replay may lose data, but
// every seed rots bytes and replay detects it: a corrupt record skipped, a
// tail truncated, or a base refused. It never panics, and some seed opens
// and skips a rotted upload record.
func TestReplayUnderCorruptReads(t *testing.T) {
	t.Parallel()
	skipped := false
	for seed := uint64(1); seed <= 5; seed++ {
		skipped = differential(t, fault.StorageRates{CorruptRead: 0.05}, seed, 48).Corrupt > 0 || skipped
	}
	if !skipped {
		t.Error("no seed skipped a rotted upload record")
	}
}

// TestCISweeps runs every argument set of CI's chaos-storage-smoke job,
// one parallel subtest per cell, and the default measurement sweep of
// cmd/chaos.
func TestCISweeps(t *testing.T) {
	t.Parallel()
	storage := []struct {
		kind    string
		rates   []float64
		uploads int
		seed    uint64
	}{
		{"all", []float64{0, 0.02, 0.05, 0.1}, 128, 11},
		{"torn", []float64{0, 0.05, 0.15}, 128, 13},
		{"short", []float64{0, 0.5, 0.9}, 48, 17},
		{"corrupt", []float64{0, 0.01, 0.02}, 32, 19},
	}
	for _, sw := range storage {
		for i, rate := range sw.rates {
			t.Run(fmt.Sprintf("storage-%s/%.2f", sw.kind, rate), func(t *testing.T) {
				t.Parallel()
				sr, err := StorageRates(sw.kind, rate)
				if err != nil {
					t.Fatal(err)
				}
				r := differential(t, sr, CellSeed(sw.seed, i), sw.uploads)
				if sr.CorruptRead > 0 && r.Corrupt+r.Truncated == 0 {
					t.Errorf("replay reached no rotted upload record (%+v)", r)
				}
			})
		}
	}
	for i, rate := range []float64{0, 0.05, 0.2} {
		t.Run(fmt.Sprintf("fleetscale-all/%.2f", rate), func(t *testing.T) {
			t.Parallel()
			sr, err := FleetscaleRates("all", rate)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Fleetscale(sr, 11, CellSeed(11, i), 1000, 6000)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Check(); err != nil {
				t.Errorf("%v (%+v)", err, c)
			}
			t.Logf("injected %d", c.Injected)
		})
	}
	t.Run("measure-stack", func(t *testing.T) {
		t.Parallel()
		rows, _, err := Measure("stack", []float64{0, 0.1, 0.25, 0.5, 0.75, 1}, []string{"K9-Mail", "QKSMS", "Omni-Notes"}, 150, 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckMeasure(rows); err != nil {
			t.Error(err)
		}
		if rows[len(rows)-1].Health == (core.Health{}) {
			t.Error("rate 1 left every health counter at zero")
		}
	})
}

// TestCellChecks: a cell with a nonzero rate that delivered no fault
// breaks its contract, however clean its outcome. Without bit rot,
// recovery opens at once and replay finds no bad frame but the torn tail a
// torn write may leave, so short reads, like a clean disk, are
// transparent.
func TestCellChecks(t *testing.T) {
	torn, short := fault.StorageRates{TornWrite: 0.1}, fault.StorageRates{ShortRead: 0.5}
	full := fault.StorageRates{DiskFull: 0.05}
	for i, tc := range []struct {
		err  error
		fail bool
	}{
		{Recovery{Rates: torn, Identical: true}.Check(), true},
		{FleetCell{Rates: full, Uploads: 10, Delivered: 10, Reopened: true, Clean: true}.Check(), true},
		{FleetCell{Rates: full, Uploads: 10, Delivered: 10, Reopened: true, Clean: true, Injected: 1}.Check(), false},
		{Recovery{Identical: true}.Check(), false},
		{Recovery{Identical: true, Refused: 1}.Check(), true},
		{Recovery{Identical: true, Truncated: 1}.Check(), true},
		{Recovery{Rates: short, Injected: 1, Identical: true, Corrupt: 1}.Check(), true},
		{Recovery{Rates: torn, Injected: 1, Identical: true, Truncated: 1}.Check(), false},
		{Recovery{Rates: torn, Injected: 1, Identical: true, Corrupt: 1}.Check(), true},
		{Recovery{Rates: fault.StorageRates{CorruptRead: 0.01}, Injected: 1, Refused: 101}.Check(), false},
	} {
		if (tc.err != nil) != tc.fail {
			t.Errorf("case %d: Check() = %v, want failure %v", i, tc.err, tc.fail)
		}
	}
}
