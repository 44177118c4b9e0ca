// Command chaos is the fault-injection sweep harness: it runs Hang Doctor
// over corpus apps while the simulated measurement plane fails at a
// configurable rate, and prints how precision, recall, and overhead degrade
// as the faults ramp up. The property it demonstrates is graceful
// degradation: missing data defers verdicts (bounded recall loss) instead
// of fabricating them (no new false positives relative to the fault-free
// baseline).
//
// Usage:
//
//	chaos                                    # default sweep, stack-miss fault
//	chaos -fault all -rates 0,0.25,0.5,1     # every fault kind at once
//	chaos -apps K9-Mail -n 200 -seed 7       # one app, longer trace
//
// Fault kinds: open (perf-session open failure), counter (per-event dropout
// mid-window), render (render-thread counters unavailable), stack
// (stack-sample miss), trunc (stack truncation), overrun (late sampler
// ticks), worker (pool-worker stack loss — sweep async-slice apps such as
// -apps NewsBurst,GeoTracker to see causal attribution degrade), all (every
// kind at the same rate).
//
// A second mode sweeps the storage plane instead of the measurement plane:
//
//	chaos -storage torn -rates 0,0.05,0.1     # torn writes under crash recovery
//	chaos -storage all                        # torn + fsync + disk-full together
//
// A third mode drives the virtual-time fleet simulation engine
// (internal/sim) into a durable aggregator whose WAL sits on a
// fault-injected filesystem — fleet-scale load meeting a sick disk:
//
//	chaos -fleetscale torn -rates 0,0.1,0.5   # engine vs torn WAL appends
//	chaos -fleetscale all                     # torn + fsync + disk-full
//
// Each fleetscale cell asserts the ack contract under load: uploads whose
// merge was acknowledged survive a close/reopen byte-identically, failed
// appends surface as ack errors (engine Failed count), and the rate-0
// cell folds byte-identical to a clean in-memory reference run.
//
// Each storage cell runs a durable fleet aggregator against a fault-injected
// WAL, kills it at a random point mid-load, recovers the directory, and
// asserts the recovery contract: every acknowledged upload survives, and
// resending the unacknowledged ones converges byte-identically to an
// unbroken run. Storage kinds: torn (partial appends), fsync (failed
// barriers), full (ENOSPC), short (short reads during replay), corrupt
// (bit rot during replay — detection is asserted, loss is legitimate),
// all (the three write faults together).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/core"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/detect"
	"hangdoctor/internal/fault"
	"hangdoctor/internal/fleet"
	"hangdoctor/internal/obs"
	"hangdoctor/internal/sim"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

func ratesFor(kind string, rate float64) (fault.Rates, error) {
	switch kind {
	case "open":
		return fault.Rates{PerfOpenFail: rate}, nil
	case "counter":
		return fault.Rates{CounterDrop: rate}, nil
	case "render":
		return fault.Rates{RenderLoss: rate}, nil
	case "stack":
		return fault.Rates{StackMiss: rate}, nil
	case "trunc":
		return fault.Rates{StackTruncate: rate}, nil
	case "overrun":
		return fault.Rates{SamplerOverrun: rate}, nil
	case "worker":
		return fault.Rates{WorkerStackMiss: rate}, nil
	case "all":
		return fault.Rates{
			PerfOpenFail: rate, CounterDrop: rate, RenderLoss: rate,
			StackMiss: rate, StackTruncate: rate, SamplerOverrun: rate,
			WorkerStackMiss: rate,
		}, nil
	}
	return fault.Rates{}, fmt.Errorf("unknown fault kind %q (want open|counter|render|stack|trunc|overrun|worker|all)", kind)
}

// sweepRow aggregates one fault rate across all apps.
type sweepRow struct {
	rate     float64
	tp, fp   int
	fn       int
	overhead float64 // mean across apps, percent
	health   core.Health
}

func (r sweepRow) precision() float64 {
	if r.tp+r.fp == 0 {
		return 1
	}
	return float64(r.tp) / float64(r.tp+r.fp)
}

func (r sweepRow) recall() float64 {
	if r.tp+r.fn == 0 {
		return 0
	}
	return float64(r.tp) / float64(r.tp+r.fn)
}

func main() {
	appsFlag := flag.String("apps", "K9-Mail,QKSMS,Omni-Notes", "comma-separated corpus apps to sweep")
	n := flag.Int("n", 150, "actions per trace")
	seed := flag.Uint64("seed", 11, "base seed (trace, session, and faults derive from it)")
	kind := flag.String("fault", "stack", "fault kind: open|counter|render|stack|trunc|overrun|worker|all")
	ratesFlag := flag.String("rates", "0,0.1,0.25,0.5,0.75,1", "comma-separated fault rates to sweep")
	storage := flag.String("storage", "", "sweep the storage plane instead: torn|fsync|full|short|corrupt|all")
	uploadsFlag := flag.Int("uploads", 48, "durable uploads per storage-sweep cell")
	fleetscale := flag.String("fleetscale", "", "drive the fleet simulation engine against a durable WAL under write faults: torn|fsync|full|all")
	fleetDevices := flag.Int("fleet-devices", 2000, "devices in each -fleetscale cell")
	fleetUploads := flag.Int64("fleet-uploads", 10_000, "uploads in each -fleetscale cell")
	flag.Parse()

	var rates []float64
	for _, s := range strings.Split(*ratesFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || v < 0 || v > 1 {
			fmt.Fprintf(os.Stderr, "bad rate %q: want a number in [0,1]\n", s)
			os.Exit(2)
		}
		rates = append(rates, v)
	}
	if *storage != "" {
		runStorageSweep(*storage, rates, *seed, *uploadsFlag)
		return
	}
	if *fleetscale != "" {
		runFleetscaleSweep(*fleetscale, rates, *seed, *fleetDevices, *fleetUploads)
		return
	}
	apps := strings.Split(*appsFlag, ",")

	rows := make([]sweepRow, 0, len(rates))
	// Every (app, rate) cell's Doctor registry merges into one sweep-wide
	// metrics view, printed at exit.
	var cellSnaps []obs.Snapshot
	for _, rate := range rates {
		fr, err := ratesFor(*kind, rate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		row := sweepRow{rate: rate}
		for ai, name := range apps {
			name = strings.TrimSpace(name)
			// A fresh corpus per run isolates the known-blocking feedback
			// loop between configurations.
			c := corpus.Build()
			a := c.MustApp(name)
			d := core.New(core.Config{})
			h, err := detect.NewHarness(a, app.LGV10(), *seed, d)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			// Each (app, rate) cell gets its own fault stream so cells are
			// independently reproducible.
			h.Session.SetFaults(fault.New(*seed+uint64(ai)*1000003, fr))
			h.Run(corpus.Trace(a, *seed, *n), simclock.Second)
			ev := h.Evaluate(d)
			row.tp += ev.TP
			row.fp += ev.FP
			row.fn += ev.FN
			row.overhead += h.Overhead(d).Avg() / float64(len(apps))
			hl := d.Health()
			row.health.Add(hl)
			cellSnaps = append(cellSnaps, d.Metrics())
		}
		rows = append(rows, row)
	}

	fmt.Printf("chaos sweep: fault=%s apps=%s n=%d seed=%d\n\n", *kind, *appsFlag, *n, *seed)
	fmt.Printf("%6s %5s %5s %5s %10s %7s %9s %9s %8s %8s %11s\n",
		"rate", "TP", "FP", "FN", "precision", "recall", "overhead%", "deferred", "lowconf", "quarant", "newFP-vs-0")
	base := rows[0]
	for _, r := range rows {
		fmt.Printf("%6.2f %5d %5d %5d %10.2f %7.2f %9.2f %9d %8d %8d %11d\n",
			r.rate, r.tp, r.fp, r.fn, r.precision(), r.recall(), r.overhead,
			r.health.VerdictsDeferred, r.health.LowConfidence, r.health.Quarantines,
			r.fp-base.fp)
	}
	fmt.Printf("\nhealth at max rate: %s\n", rows[len(rows)-1].health)

	fmt.Printf("\nsweep metrics (all %d cells merged):\n%s",
		len(cellSnaps), obs.MergeSnapshots(cellSnaps...).Summary())

	// Graceful-degradation contract: faults must never create detections the
	// perfect plane would not have made.
	for _, r := range rows[1:] {
		if r.fp > base.fp {
			fmt.Fprintf(os.Stderr, "\nFAIL: fault rate %.2f produced %d new false positives\n", r.rate, r.fp-base.fp)
			os.Exit(1)
		}
	}
	fmt.Println("OK: no fault rate produced new false positives")
}

// ---------------------------------------------------------------------------
// Storage-plane sweep

func storageRatesFor(kind string, rate float64) (fault.StorageRates, error) {
	switch kind {
	case "torn":
		return fault.StorageRates{TornWrite: rate}, nil
	case "fsync":
		return fault.StorageRates{FsyncFail: rate}, nil
	case "full":
		return fault.StorageRates{DiskFull: rate}, nil
	case "short":
		return fault.StorageRates{ShortRead: rate}, nil
	case "corrupt":
		return fault.StorageRates{CorruptRead: rate}, nil
	case "all":
		// The write faults together; read faults have their own cells
		// because their assertions differ.
		return fault.StorageRates{TornWrite: rate, FsyncFail: rate, DiskFull: rate}, nil
	}
	return fault.StorageRates{}, fmt.Errorf("unknown storage fault kind %q (want torn|fsync|full|short|corrupt|all)", kind)
}

// storageCell is one (kind, rate) crash-recovery round's outcome.
type storageCell struct {
	rate      float64
	acked     int // uploads acknowledged before the crash
	lostAcked int // acked uploads missing after recovery — must be 0
	identical bool
	stats     fault.StorageStats
	replayed  int64
	truncated int64
	corrupt   int64
}

// runStorageSweep kills a durable aggregator mid-load at every fault rate
// and verifies the recovery contract. Write faults (torn, fsync, full) are
// injected during the loaded run with recovery on a clean FS; read faults
// (short, corrupt) invert that, stressing replay instead of append.
func runStorageSweep(kind string, rates []float64, seed uint64, uploads int) {
	readFault := kind == "short" || kind == "corrupt"
	fmt.Printf("chaos storage sweep: fault=%s uploads=%d seed=%d\n\n", kind, uploads, seed)
	fmt.Printf("%6s %7s %10s %10s %9s %9s %8s %10s\n",
		"rate", "acked", "lost-acked", "injected", "replayed", "truncated", "corrupt", "identical")
	failed := false
	for ri, rate := range rates {
		sr, err := storageRatesFor(kind, rate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cell, err := storageRound(sr, readFault, seed+uint64(ri)*7919, uploads)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: rate %.2f: %v\n", rate, err)
			os.Exit(1)
		}
		cell.rate = rate
		injected := cell.stats.TornWrites + cell.stats.FsyncFails + cell.stats.DiskFulls +
			cell.stats.ShortReads + cell.stats.CorruptReads
		fmt.Printf("%6.2f %7d %10d %10d %9d %9d %8d %10v\n",
			cell.rate, cell.acked, cell.lostAcked, injected,
			cell.replayed, cell.truncated, cell.corrupt, cell.identical)
		// Bit rot (corrupt) legitimately loses data — the assertion there is
		// detection without panic or abort; every other kind must be lossless.
		if kind != "corrupt" && (cell.lostAcked > 0 || !cell.identical) {
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "\nFAIL: recovery lost acknowledged uploads or diverged from the unbroken run")
		os.Exit(1)
	}
	if kind == "corrupt" {
		fmt.Println("\nOK: replay detected every injected corruption without panicking or aborting")
		return
	}
	fmt.Println("\nOK: no fault rate lost an acknowledged upload; recovery+resend is byte-identical")
}

// storageRound runs one crash-recovery differential and checks it.
func storageRound(sr fault.StorageRates, readFault bool, seed uint64, uploads int) (storageCell, error) {
	var cell storageCell
	dir, err := os.MkdirTemp("", "chaos-wal-")
	if err != nil {
		return cell, err
	}
	defer os.RemoveAll(dir)

	rng := simrand.New(seed).Derive("chaos/storage")
	reps := make([]*core.Report, uploads)
	ids := make([]fleet.UploadID, uploads)
	serial := core.NewReport()
	for i := range reps {
		reps[i] = fleet.SyntheticUpload(int64(seed)+int64(i), fmt.Sprintf("device-%04d", i), 25)
		if ids[i], err = fleet.ReportUploadID(reps[i]); err != nil {
			return cell, err
		}
		serial.Merge(reps[i].Clone())
	}
	want, err := exportReport(serial)
	if err != nil {
		return cell, err
	}

	in := fault.NewStorage(seed, sr)
	loadFS, recoverFS := fault.FaultyFS(fault.DiskFS, in), fault.FS(nil)
	if readFault {
		loadFS, recoverFS = nil, fault.FaultyFS(fault.DiskFS, in)
	}

	walCfg := func(fs fault.FS) fleet.Config {
		return fleet.Config{
			Shards: 4, QueueDepth: 256, BatchSize: 4,
			WAL: &fleet.WALConfig{Dir: dir, Sync: fleet.SyncBatch, CompactEvery: 8, FS: fs},
		}
	}

	// Startup writes through the faulty FS too; retry like a supervisor
	// restarting fleetd on a sick disk (the fault streams continue, so a
	// retry is a fresh draw, not a replay of the same refusal).
	agg, err := openRetry(walCfg(loadFS), 100)
	if err != nil {
		return cell, fmt.Errorf("open under injection: %w", err)
	}

	// Load concurrently and crash at a random acknowledgement count.
	crashAt := int64(1 + rng.Intn(uploads-1))
	var ackCount atomic.Int64
	acked := make([]atomic.Bool, uploads)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				err := agg.SubmitDurable(reps[i].Clone(), ids[i])
				for errors.Is(err, fleet.ErrQueueFull) {
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
	agg.Crash()
	cell.acked = int(ackCount.Load())

	// Recover. Under read faults recovery itself is the system under test:
	// it must never panic; refusing a corrupted base record is legitimate, so
	// retry until the fault streams let a replay through.
	recovered, err := openRetry(walCfg(recoverFS), 100)
	if err != nil {
		return cell, fmt.Errorf("recovery: %w", err)
	}

	folded := recovered.Fold()
	for i := range reps {
		if acked[i].Load() && !reportContains(folded, reps[i]) {
			cell.lostAcked++
		}
	}

	// Resend everything unacknowledged (dedup makes over-sending safe) on a
	// clean FS and compare against the unbroken run.
	for i := range reps {
		if !acked[i].Load() {
			if err := recovered.SubmitDurable(reps[i].Clone(), ids[i]); err != nil {
				recovered.Close()
				return cell, fmt.Errorf("resend %d: %w", i, err)
			}
		}
	}
	recovered.Close()
	got, err := exportReport(recovered.Fold())
	if err != nil {
		return cell, err
	}
	cell.identical = bytes.Equal(got, want)
	cell.stats = in.Stats()
	msnap := recovered.Metrics().Registry().Snapshot()
	cell.replayed = msnap.Value("hangdoctor_fleet_wal_replayed_records_total")
	cell.truncated = msnap.Value("hangdoctor_fleet_wal_truncated_tails_total")
	cell.corrupt = msnap.Value("hangdoctor_fleet_wal_corrupt_records_total")
	return cell, nil
}

// ---------------------------------------------------------------------------
// Fleetscale sweep: the simulation engine against a faulty durable WAL

// runFleetscaleSweep runs the full fleet simulation engine into a durable
// aggregator whose WAL writes through a fault-injected filesystem, one
// cell per rate. The contract under fleet-scale load: append failures
// surface as ack errors (the engine's Failed count — never silent loss),
// whatever the aggregator acknowledged survives a close/reopen
// byte-identically, and the fault-free cell is byte-identical to a clean
// in-memory reference run of the same seed.
func runFleetscaleSweep(kind string, rates []float64, seed uint64, devices int, uploads int64) {
	switch kind {
	case "torn", "fsync", "full", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown fleetscale fault kind %q (want torn|fsync|full|all)\n", kind)
		os.Exit(2)
	}
	simCfg := func() sim.Config {
		return sim.Config{
			Devices: devices,
			Uploads: uploads,
			Entries: 4,
			Workers: 4,
			Seed:    int64(seed),
		}
	}

	// The clean reference: same fleet, no WAL, no faults.
	refAgg := fleet.NewAggregator(fleet.Config{Shards: 4})
	cfg := simCfg()
	cfg.Agg = refAgg
	eng, err := sim.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	refStats, err := eng.Run()
	if err != nil || refStats.Failed != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: clean reference run: err=%v stats=%s\n", err, refStats)
		os.Exit(1)
	}
	refAgg.Close()
	want, err := exportReport(refAgg.Fold())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("chaos fleetscale sweep: fault=%s devices=%d uploads=%d seed=%d\n\n", kind, devices, uploads, seed)
	fmt.Printf("%6s %9s %8s %11s %9s %12s\n",
		"rate", "delivered", "failed", "append-errs", "reopened", "clean-ident")
	failed := false
	for ri, rate := range rates {
		sr, err := storageRatesFor(kind, rate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		dir, err := os.MkdirTemp("", "chaos-fleetscale-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		in := fault.NewStorage(seed+uint64(ri)*7919, sr)
		walCfg := func(fs fault.FS) fleet.Config {
			return fleet.Config{
				Shards: 4, QueueDepth: 256, BatchSize: 4,
				WAL: &fleet.WALConfig{Dir: dir, Sync: fleet.SyncBatch, CompactEvery: 16, FS: fs},
			}
		}
		agg, err := openRetry(walCfg(fault.FaultyFS(fault.DiskFS, in)), 100)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: rate %.2f: open under injection: %v\n", rate, err)
			os.Exit(1)
		}
		cfg := simCfg()
		cfg.Agg = agg
		eng, err := sim.New(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st, err := eng.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: rate %.2f: engine run: %v\n", rate, err)
			os.Exit(1)
		}
		agg.Close()
		pre, err := exportReport(agg.Fold())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		appendErrs := agg.Metrics().Registry().Snapshot().Value("hangdoctor_fleet_wal_append_errors_total")

		// Reopen on a clean filesystem: recovery must reproduce exactly the
		// state the aggregator acknowledged and folded before closing.
		recovered, err := openRetry(walCfg(nil), 10)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: rate %.2f: reopen: %v\n", rate, err)
			os.Exit(1)
		}
		recovered.Close()
		got, err := exportReport(recovered.Fold())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.RemoveAll(dir)

		reopened := bytes.Equal(got, pre)
		cleanIdent := rate > 0 || (st.Failed == 0 && bytes.Equal(pre, want))
		fmt.Printf("%6.2f %9d %8d %11d %9v %12v\n",
			rate, st.Uploads, st.Failed, appendErrs, reopened,
			map[bool]string{true: "ok", false: "MISMATCH"}[cleanIdent])
		if st.Uploads+st.Failed != uploads || !reopened || !cleanIdent {
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "\nFAIL: fleetscale sweep lost uploads silently, diverged on reopen, or missed the clean reference")
		os.Exit(1)
	}
	fmt.Println("\nOK: every upload acked or failed loudly; reopen is byte-identical; rate 0 matches the clean reference")
}

func openRetry(cfg fleet.Config, attempts int) (*fleet.Aggregator, error) {
	agg, err := fleet.Open(cfg)
	for i := 0; err != nil && i < attempts; i++ {
		agg, err = fleet.Open(cfg)
	}
	return agg, err
}

func exportReport(rep *core.Report) ([]byte, error) {
	var buf bytes.Buffer
	if err := rep.Export(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// reportContains reports whether every entry of sub is accounted for in
// super with counts at least as large (Merge only ever adds).
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
