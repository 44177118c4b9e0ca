// Command chaos is the front end of the fault harness (internal/chaos,
// whose package doc states each plane's contract). By default it runs
// Hang Doctor over corpus apps while the simulated measurement plane fails
// at a sweep of rates, and prints how precision, recall, and overhead
// degrade: missing data defers verdicts instead of fabricating them.
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
// A second mode sweeps the storage plane, one crash-recovery differential
// per rate:
//
//	chaos -storage torn                     # torn writes under crash recovery
//	chaos -storage all -rates 0,0.02,0.05   # torn + fsync + disk-full together
//
// Storage kinds: torn (partial appends), fsync (failed barriers), full
// (ENOSPC), short (short reads during replay, per page), corrupt (bit rot
// during replay, per byte: detection is checked, loss is legitimate), all
// (the three write faults together).
//
// A third mode drives the virtual-time fleet simulation engine into a
// durable node whose WAL sits on a fault-injected filesystem:
//
//	chaos -fleetscale torn                  # engine vs torn WAL appends
//	chaos -fleetscale all -rates 0,0.05,0.2 # torn + fsync + disk-full
//
// Without -rates, the storage and fleetscale modes sweep per-kind rates at
// which every kind holds its contract: 0,0.05,0.1 for the write faults,
// 0,0.5,0.9 for short and 0,0.01,0.02 for corrupt. Higher write-fault
// rates can keep the loading node from opening at all.
//
// It exits 2 on bad input and 1 when a cell breaks its contract; a cell
// with a nonzero rate that injected no fault breaks it too.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hangdoctor/internal/chaos"
)

func main() {
	appsFlag := flag.String("apps", "K9-Mail,QKSMS,Omni-Notes", "comma-separated corpus apps to sweep")
	n := flag.Int("n", 150, "actions per trace")
	seed := flag.Uint64("seed", 11, "base seed (trace, session, and faults derive from it)")
	kind := flag.String("fault", "stack", "fault kind: open|counter|render|stack|trunc|overrun|worker|all")
	ratesFlag := flag.String("rates", "0,0.1,0.25,0.5,0.75,1", "comma-separated fault rates to sweep (storage and fleetscale modes default per kind)")
	storage := flag.String("storage", "", "sweep the storage plane instead: torn|fsync|full|short|corrupt|all")
	uploadsFlag := flag.Int("uploads", 128, "durable uploads per storage-sweep cell")
	fleetscale := flag.String("fleetscale", "", "drive the fleet simulation engine against a durable WAL under write faults: torn|fsync|full|all")
	fleetDevices := flag.Int("fleet-devices", 2000, "devices in each -fleetscale cell")
	fleetUploads := flag.Int64("fleet-uploads", 10_000, "uploads in each -fleetscale cell")
	flag.Parse()
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	ratesList := *ratesFlag
	storageKind := *storage
	if storageKind == "" {
		storageKind = *fleetscale
	}
	if storageKind != "" && !given["rates"] {
		ratesList = storageDefaultRates(storageKind)
	}

	var rates []float64
	for _, s := range strings.Split(ratesList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || v < 0 || v > 1 {
			exit(2, fmt.Errorf("bad rate %q: want a number in [0,1]", s))
		}
		rates = append(rates, v)
	}
	switch {
	case *storage != "":
		storageSweep(*storage, rates, *seed, *uploadsFlag)
	case *fleetscale != "":
		fleetscaleSweep(*fleetscale, rates, *seed, *fleetDevices, *fleetUploads)
	default:
		measureSweep(*kind, rates, *appsFlag, *n, *seed)
	}
}

// storageDefaultRates returns the rates a storage or fleetscale sweep of
// kind runs without -rates; the measurement sweep keeps the flag default.
func storageDefaultRates(kind string) string {
	switch kind {
	case "short":
		return "0,0.5,0.9"
	case "corrupt":
		return "0,0.01,0.02"
	}
	return "0,0.05,0.1"
}

// exit prints err to stderr and exits with code when err is not nil.
func exit(code int, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
}

func measureSweep(kind string, rates []float64, apps string, n int, seed uint64) {
	_, err := chaos.Rates(kind, 0)
	exit(2, err)
	appList := strings.Split(apps, ",")
	rows, metrics, err := chaos.Measure(kind, rates, appList, n, seed)
	exit(1, err)

	fmt.Printf("chaos sweep: fault=%s apps=%s n=%d seed=%d\n\n", kind, apps, n, seed)
	fmt.Printf("%6s %5s %5s %5s %10s %7s %9s %9s %8s %8s %11s\n",
		"rate", "TP", "FP", "FN", "precision", "recall", "overhead%", "deferred", "lowconf", "quarant", "newFP-vs-0")
	for _, r := range rows {
		fmt.Printf("%6.2f %5d %5d %5d %10.2f %7.2f %9.2f %9d %8d %8d %11d\n",
			r.Rate, r.TP, r.FP, r.FN, r.Precision(), r.Recall(), r.Overhead,
			r.Health.VerdictsDeferred, r.Health.LowConfidence, r.Health.Quarantines,
			r.FP-rows[0].FP)
	}
	fmt.Printf("\nhealth at max rate: %s\n", rows[len(rows)-1].Health)
	fmt.Printf("\nsweep metrics (all %d cells merged):\n%s",
		len(rows)*len(appList), metrics.Summary())
	if err := chaos.CheckMeasure(rows); err != nil {
		exit(1, fmt.Errorf("\nFAIL: %w", err))
	}
	fmt.Println("OK: no fault rate produced new false positives")
}

func storageSweep(kind string, rates []float64, seed uint64, uploads int) {
	if uploads < 2 {
		exit(2, fmt.Errorf("bad -uploads %d: a crash needs at least 2", uploads))
	}
	fmt.Printf("chaos storage sweep: fault=%s uploads=%d seed=%d\n\n", kind, uploads, seed)
	fmt.Printf("%6s %7s %10s %10s %9s %9s %8s %8s %10s\n",
		"rate", "acked", "lost-acked", "injected", "replayed", "truncated", "corrupt", "refused", "identical")
	failed := false
	for i, rate := range rates {
		sr, err := chaos.StorageRates(kind, rate)
		exit(2, err)
		c, err := chaos.Differential(sr, chaos.CellSeed(seed, i), uploads)
		if err != nil {
			exit(1, fmt.Errorf("FAIL: rate %.2f: %w", rate, err))
		}
		fmt.Printf("%6.2f %7d %10d %10d %9d %9d %8d %8d %10v\n",
			rate, c.Acked, c.LostAcked, c.Injected, c.Replayed, c.Truncated, c.Corrupt, c.Refused, c.Identical)
		if err := c.Check(); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: rate %.2f: %v\n", rate, err)
			failed = true
		}
	}
	switch {
	case failed:
		os.Exit(1)
	case kind == "corrupt":
		fmt.Println("\nOK: every fault rate rotted bytes, and replay detected the rot without panicking or aborting")
	default:
		fmt.Println("\nOK: no fault rate lost an acknowledged upload; recovery+resend is byte-identical")
	}
}

func fleetscaleSweep(kind string, rates []float64, seed uint64, devices int, uploads int64) {
	fmt.Printf("chaos fleetscale sweep: fault=%s devices=%d uploads=%d seed=%d\n\n", kind, devices, uploads, seed)
	fmt.Printf("%6s %9s %8s %11s %9s %9s %12s\n",
		"rate", "delivered", "failed", "append-errs", "injected", "reopened", "clean-ident")
	failed := false
	for i, rate := range rates {
		sr, err := chaos.FleetscaleRates(kind, rate)
		exit(2, err)
		c, err := chaos.Fleetscale(sr, seed, chaos.CellSeed(seed, i), devices, uploads)
		if err != nil {
			exit(1, fmt.Errorf("FAIL: rate %.2f: %w", rate, err))
		}
		fmt.Printf("%6.2f %9d %8d %11d %9d %9v %12s\n",
			rate, c.Delivered, c.Failed, c.AppendErrs, c.Injected, c.Reopened,
			map[bool]string{true: "ok", false: "MISMATCH"}[c.Clean])
		if err := c.Check(); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: rate %.2f: %v\n", rate, err)
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "\nFAIL: fleetscale sweep lost uploads silently, diverged on reopen, injected nothing, or missed the clean reference")
		os.Exit(1)
	}
	fmt.Println("\nOK: every upload acked or failed loudly; reopen is byte-identical; rate 0 matches the clean reference")
}
