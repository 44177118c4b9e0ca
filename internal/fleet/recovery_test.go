package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fault"
	"hangdoctor/internal/simrand"
)

// crashRun drives one crash-recovery differential: a fleet of goroutines
// uploads durably while the aggregator is crashed at a random ack count,
// then a second aggregator recovers the directory (with a clean FS),
// unacknowledged uploads are resent, and the fold must be byte-identical
// to a serial merge of every upload. That is the acceptance bar: every
// 202-acked upload survives the crash, and resending the rest converges
// to exactly the unbroken run's answer. It returns how many compactions
// the crashed aggregator completed before the crash.
func crashRun(t *testing.T, seed uint64, fs fault.FS) int64 {
	t.Helper()
	dir := t.TempDir()
	rng := simrand.New(seed).Derive("crash-test")
	const nUploads = 48
	reps := uploads(nUploads, 25)
	serial := core.NewReport()
	serial.Merge(reps...)
	want := exportBytes(t, serial)

	ids := make([]UploadID, nUploads)
	for i, r := range reps {
		id, err := ReportUploadID(r)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	cfg := durableCfg(dir, 4)
	cfg.WAL.FS = fs
	// Startup itself writes through the faulty FS (a first base, possibly a
	// torn-tail repair), so under injection Open may legitimately fail; a
	// retry draws the next decisions from the per-file fault streams, like
	// a supervisor restarting a crashed fleetd on a sick disk.
	agg, err := Open(cfg)
	for attempt := 0; err != nil && attempt < 100; attempt++ {
		agg, err = Open(cfg)
	}
	if err != nil {
		t.Fatalf("Open never succeeded under injection: %v", err)
	}

	// Crash once the ack count crosses a random threshold — anywhere from
	// "almost nothing durable" to "almost everything durable".
	crashAt := int64(1 + rng.Intn(nUploads-1))
	var ackCount atomic.Int64
	acked := make([]atomic.Bool, nUploads)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				err := agg.SubmitDurable(reps[i].Clone(), ids[i])
				for errors.Is(err, ErrQueueFull) {
					err = agg.SubmitDurable(reps[i].Clone(), ids[i])
				}
				if err == nil {
					acked[i].Store(true)
					if ackCount.Add(1) == crashAt {
						go agg.Crash()
					}
				}
			}
		}()
	}
	for i := range reps {
		work <- i
	}
	close(work)
	wg.Wait()
	agg.Crash() // idempotent: covers the run finishing before crashAt acks
	compactions := agg.Metrics().Registry().Snapshot().Value("hangdoctor_fleet_wal_compactions_total")

	// Recover with a clean filesystem: the faults modeled a sick disk or a
	// torn crash, not permanent media loss.
	cfg2 := durableCfg(dir, 4)
	recovered, err := Open(cfg2)
	if err != nil {
		t.Fatalf("seed %d: recovery failed: %v", seed, err)
	}

	// Invariant 1: every acknowledged upload is present in the recovered
	// state — acked means the WAL barrier completed before the crash.
	folded := recovered.Fold()
	for i := range reps {
		if acked[i].Load() && !reportContains(folded, reps[i]) {
			recovered.Close()
			t.Fatalf("seed %d: acked upload %d missing after recovery", seed, i)
		}
	}

	// Invariant 2: resending every unacknowledged upload (and, for good
	// measure, a few acked ones — dedup makes that a no-op) converges to
	// the unbroken run byte-for-byte.
	for i := range reps {
		if !acked[i].Load() || i%7 == 0 {
			if err := recovered.SubmitDurable(reps[i].Clone(), ids[i]); err != nil {
				recovered.Close()
				t.Fatalf("seed %d: resend %d: %v", seed, i, err)
			}
		}
	}
	recovered.Close()
	if got := exportBytes(t, recovered.Fold()); !bytes.Equal(got, want) {
		t.Fatalf("seed %d: recovered+resent fold diverged from serial merge (crash after %d acks)", seed, crashAt)
	}
	return compactions
}

// reportContains reports whether every entry of sub is accounted for in
// super: same root cause present, with counts at least as large. (Merge
// only ever adds, so a durable fragment can never shrink an entry.)
func reportContains(super, sub *core.Report) bool {
	byKey := make(map[string]*core.ReportEntry, super.Len())
	for _, e := range super.Entries() {
		byKey[e.App+"\x00"+e.ActionUID+"\x00"+e.RootCause] = e
	}
	for _, e := range sub.Entries() {
		se, ok := byKey[e.App+"\x00"+e.ActionUID+"\x00"+e.RootCause]
		if !ok || se.Hangs < e.Hangs || se.SumResponse < e.SumResponse ||
			se.MaxResponse < e.MaxResponse {
			return false
		}
	}
	return true
}

// TestCrashRecoveryDifferential sweeps crash points on a healthy disk.
// Some crashes must land after a mid-run compaction, so recovery also
// replays a base record plus the tail behind it.
func TestCrashRecoveryDifferential(t *testing.T) {
	var compactions int64
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			compactions += crashRun(t, seed, nil)
		})
	}
	if compactions == 0 {
		t.Error("no crashed run compacted mid-run")
	}
}

// TestCrashRecoveryUnderStorageFaults repeats the differential while the
// first run's writes go through the storage-fault injector: torn writes,
// fsync failures, and intermittent disk-full. Faulted uploads simply are
// not acknowledged; the invariants are identical.
func TestCrashRecoveryUnderStorageFaults(t *testing.T) {
	cases := []struct {
		name  string
		rates fault.StorageRates
	}{
		{"torn-write", fault.StorageRates{TornWrite: 0.05}},
		{"fsync-fail", fault.StorageRates{FsyncFail: 0.05}},
		{"disk-full", fault.StorageRates{DiskFull: 0.05}},
		{"mixed", fault.StorageRates{TornWrite: 0.03, FsyncFail: 0.03, DiskFull: 0.02}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
					fs := fault.FaultyFS(fault.DiskFS, fault.NewStorage(seed*977, tc.rates))
					crashRun(t, seed, fs)
				})
			}
		})
	}
}
