package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fault"
	"hangdoctor/internal/fleet"
	"hangdoctor/internal/sim"
	"hangdoctor/internal/simrand"
)

// Recovery is the outcome of one crash-recovery differential.
type Recovery struct {
	Rates       fault.StorageRates
	Acked       int   // uploads acknowledged before the crash
	LostAcked   int   // acknowledged uploads missing after recovery
	Identical   bool  // recovery plus resend folds to the serial merge
	Injected    int64 // faults delivered once the loaded node was open; each rotted byte counts one
	Compactions int64 // compactions the crashed node completed
	Refused     int   // recovery opens that failed
	// The recovered node's WAL counters.
	Replayed, Truncated, Corrupt int64
}

// Check returns the contract the differential broke, or nil.
func (r Recovery) Check() error {
	switch {
	case !r.Rates.Zero() && r.Injected == 0:
		return errors.New("injected no fault: the cell tests nothing")
	case r.Rates.CorruptRead > 0:
		// Bit rot may lose data; undetected rot is the failure.
		if r.Corrupt+r.Truncated == 0 && r.Refused == 0 {
			return fmt.Errorf("replay detected none of %d rotted bytes", r.Injected)
		}
		return nil
	case r.Refused > 0:
		return fmt.Errorf("recovery failed %d opens with no bit rot", r.Refused)
	case r.Corrupt > 0 || r.Rates.TornWrite == 0 && r.Truncated > 0:
		// Only a torn write leaves a bad frame, and only at the tail.
		return fmt.Errorf("replay skipped %d records and truncated %d tails no fault could damage", r.Corrupt, r.Truncated)
	case r.LostAcked > 0:
		return fmt.Errorf("recovery lost %d of %d acknowledged uploads", r.LostAcked, r.Acked)
	case !r.Identical:
		return errors.New("recovery plus resend diverged from the serial merge")
	}
	return nil
}

// Differential runs the crash-recovery differential with uploads (at
// least 2) synthetic uploads. Six submitters load a durable node whose
// writes draw rates' write faults, and the node is crashed at a seeded ack
// count, but not before the load has drawn a write fault, so that a faulty
// cell never crashes on the fault-free path. A second node recovers the
// directory through rates' read faults, retrying an open that refuses a
// corrupt base. Then every unacknowledged upload, and every seventh
// acknowledged one, which must deduplicate, is resent. The error reports
// a harness failure; the contract is Recovery.Check's.
func Differential(rates fault.StorageRates, seed uint64, uploads int) (Recovery, error) {
	r := Recovery{Rates: rates}
	dir, err := os.MkdirTemp("", "chaos-wal-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)

	reps := make([]*core.Report, uploads)
	for i := range reps {
		reps[i] = fleet.SyntheticUpload(int64(seed)+int64(i), fmt.Sprintf("device-%04d", i), 25)
	}
	serial := core.NewReport()
	serial.Merge(reps...)
	want, err := exportReport(serial)
	if err != nil {
		return r, err
	}

	write := fault.StorageRates{TornWrite: rates.TornWrite, FsyncFail: rates.FsyncFail, DiskFull: rates.DiskFull}
	load := fault.NewStorage(seed, write)
	replay := fault.NewStorage(seed, fault.StorageRates{ShortRead: rates.ShortRead, CorruptRead: rates.CorruptRead})
	// Compact every 8 records, but never under bit rot: drawn per byte, rot
	// would hit nearly every open's base, and no open would reach the
	// upload records whose skip the cell tests.
	compactEvery := 2
	if rates.CorruptRead > 0 {
		compactEvery = uploads // × 4 shards: more records than the cell appends
	}
	cfg := func(in *fault.StorageInjector) fleet.Config {
		return fleet.Config{
			Shards: 4, QueueDepth: 256, BatchSize: 4,
			WAL: &fleet.WALConfig{Dir: dir, Sync: fleet.SyncBatch, CompactEvery: compactEvery, FS: fault.FaultyFS(fault.DiskFS, in)},
		}
	}
	agg, _, err := openRetry(cfg(load))
	if err != nil {
		return r, fmt.Errorf("open under injection: %w", err)
	}

	// Faults the open absorbed are not the load's.
	opened := injected(load)
	crashAt := int64(1 + simrand.New(seed).Derive("chaos/storage").Intn(uploads-1))
	var acks atomic.Int64
	var crashed atomic.Bool
	acked := make([]atomic.Bool, uploads)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				err := agg.SubmitDurable(reps[i], fleet.UploadID{})
				for errors.Is(err, fleet.ErrQueueFull) {
					err = agg.SubmitDurable(reps[i], fleet.UploadID{})
				}
				if err == nil {
					acked[i].Store(true)
					if acks.Add(1) >= crashAt && (write.Zero() || injected(load) > opened) && crashed.CompareAndSwap(false, true) {
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
	agg.Crash() // the load may end before the crash; else this waits out its teardown
	r.Acked = int(acks.Load())
	r.Compactions = agg.Metrics().Registry().Snapshot().Value("hangdoctor_fleet_wal_compactions_total")

	recovered, refused, err := openRetry(cfg(replay))
	r.Refused = refused
	r.Injected = injected(load) - opened + injected(replay)
	if err != nil && rates.CorruptRead > 0 {
		return r, nil // rot dense enough to hit every retry's base: nothing to compare
	}
	if err != nil {
		return r, fmt.Errorf("recovery: %w", err)
	}
	have := make(map[string]*core.ReportEntry)
	for _, e := range recovered.Fold().Entries() {
		have[entryKey(e)] = e
	}
	for i := range reps {
		if acked[i].Load() && !covered(have, reps[i]) {
			r.LostAcked++
		}
		if !acked[i].Load() || i%7 == 0 {
			if err := recovered.SubmitDurable(reps[i], fleet.UploadID{}); err != nil {
				recovered.Close()
				return r, fmt.Errorf("resend %d: %w", i, err)
			}
		}
	}
	recovered.Close()
	got, err := exportReport(recovered.Fold())
	r.Identical = bytes.Equal(got, want)
	snap := recovered.Metrics().Registry().Snapshot()
	r.Replayed = snap.Value("hangdoctor_fleet_wal_replayed_records_total")
	r.Truncated = snap.Value("hangdoctor_fleet_wal_truncated_tails_total")
	r.Corrupt = snap.Value("hangdoctor_fleet_wal_corrupt_records_total")
	return r, err
}

// FleetCell is the outcome of one fleetscale cell.
type FleetCell struct {
	Rates      fault.StorageRates
	Uploads    int64 // the fleet's upload budget
	Delivered  int64 // uploads the node acknowledged
	Failed     int64 // uploads that failed loudly
	AppendErrs int64 // the node's failed appends and barriers
	Injected   int64 // faults delivered
	Reopened   bool  // a reopen folds byte-identically to the closed node
	Clean      bool  // a fault-free cell matches the in-memory run; true under faults
}

// Check returns the contract the cell broke, or nil.
func (c FleetCell) Check() error {
	switch {
	case !c.Rates.Zero() && c.Injected == 0:
		return errors.New("injected no fault: the cell tests nothing")
	case c.Delivered+c.Failed != c.Uploads:
		return fmt.Errorf("%d of %d uploads neither acknowledged nor failed", c.Uploads-c.Delivered-c.Failed, c.Uploads)
	case !c.Reopened:
		return errors.New("the reopened fold diverged from the closed node's")
	case !c.Clean:
		return errors.New("the fault-free fold differs from the clean in-memory run")
	}
	return nil
}

// Fleetscale runs one fleetscale cell: the simulator's fleet of devices,
// seeded with fleetSeed, uploads through a durable node whose log writes
// draw rates' faults from faultSeed. The node is closed and reopened on a
// clean disk. A fault-free cell also runs the fleet into a memory-only
// node for the clean reference.
func Fleetscale(rates fault.StorageRates, fleetSeed, faultSeed uint64, devices int, uploads int64) (FleetCell, error) {
	c := FleetCell{Rates: rates, Uploads: uploads, Clean: true}
	run := func(agg *fleet.Aggregator) ([]byte, sim.Stats, error) {
		var st sim.Stats
		eng, err := sim.New(sim.Config{Devices: devices, Uploads: uploads, Entries: 4, Workers: 4, Seed: int64(fleetSeed), Agg: agg})
		if err == nil {
			st, err = eng.Run()
		}
		agg.Close()
		if err != nil {
			return nil, st, err
		}
		rep, err := exportReport(agg.Fold())
		return rep, st, err
	}

	dir, err := os.MkdirTemp("", "chaos-fleetscale-")
	if err != nil {
		return c, err
	}
	defer os.RemoveAll(dir)
	in := fault.NewStorage(faultSeed, rates)
	cfg := func(fs fault.FS) fleet.Config {
		return fleet.Config{
			Shards: 4, QueueDepth: 256, BatchSize: 4,
			WAL: &fleet.WALConfig{Dir: dir, Sync: fleet.SyncBatch, CompactEvery: 16, FS: fs},
		}
	}
	agg, _, err := openRetry(cfg(fault.FaultyFS(fault.DiskFS, in)))
	if err != nil {
		return c, fmt.Errorf("open under injection: %w", err)
	}
	pre, st, err := run(agg)
	if err != nil {
		return c, fmt.Errorf("engine run: %w", err)
	}
	c.Delivered, c.Failed = st.Uploads, st.Failed
	c.AppendErrs = agg.Metrics().Registry().Snapshot().Value("hangdoctor_fleet_wal_append_errors_total")
	c.Injected = injected(in)

	reopened, _, err := openRetry(cfg(nil))
	if err != nil {
		return c, fmt.Errorf("reopen: %w", err)
	}
	reopened.Close()
	got, err := exportReport(reopened.Fold())
	if err != nil {
		return c, err
	}
	c.Reopened = bytes.Equal(got, pre)

	if rates.Zero() {
		ref, rst, err := run(fleet.NewAggregator(fleet.Config{Shards: 4}))
		if err != nil || rst.Failed != 0 {
			return c, fmt.Errorf("clean reference run: err=%v stats=%s", err, rst)
		}
		c.Clean = st.Failed == 0 && bytes.Equal(pre, ref)
	}
	return c, nil
}

// exportReport is rep's canonical JSON export, the bytes the
// differentials compare.
func exportReport(rep *core.Report) ([]byte, error) {
	var buf bytes.Buffer
	err := rep.Export(&buf)
	return buf.Bytes(), err
}

// openRetry opens cfg, retrying up to 100 times like a supervisor
// restarting a node on a sick disk: the fault streams continue across
// opens, so a retry is a fresh draw. It reports how many opens failed.
func openRetry(cfg fleet.Config) (agg *fleet.Aggregator, failed int, err error) {
	for ; failed <= 100; failed++ {
		if agg, err = fleet.Open(cfg); err == nil {
			break
		}
	}
	return agg, failed, err
}

// injected is the number of faults in has delivered.
func injected(in *fault.StorageInjector) int64 {
	s := in.Stats()
	return s.TornWrites + s.FsyncFails + s.DiskFulls + s.ShortReads + s.CorruptBytes
}

// covered reports whether every entry of rep is in have, a fold's entries
// by key, with counts at least as large (a merge only ever adds).
func covered(have map[string]*core.ReportEntry, rep *core.Report) bool {
	for _, e := range rep.Entries() {
		h, ok := have[entryKey(e)]
		if !ok || h.Hangs < e.Hangs || h.SumResponse < e.SumResponse || h.MaxResponse < e.MaxResponse {
			return false
		}
	}
	return true
}

func entryKey(e *core.ReportEntry) string { return e.App + "\x00" + e.ActionUID + "\x00" + e.RootCause }
