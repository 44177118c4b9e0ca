// Command experiments regenerates the paper's tables and figures on the
// simulated corpus.
//
// Usage:
//
//	experiments [-run name[,name...]] [-seed N] [-scale small|full]
//	            [-parallel N] [-cpuprofile file] [-memprofile file] [-list]
//
// With no -run flag it regenerates everything in paper order. -parallel
// bounds the experiment engine's worker pool (0 = one worker per CPU,
// 1 = serial); artifacts are byte-identical at every setting. Stdout holds
// only the artifacts, so it is byte-reproducible; the per-experiment wall
// times and the engine-metrics summary go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hangdoctor/internal/experiments"
	"hangdoctor/internal/experiments/pool"
	"hangdoctor/internal/obs"
)

func main() {
	runFlag := flag.String("run", "", "comma-separated experiment names (default: all)")
	seed := flag.Uint64("seed", 42, "deterministic experiment seed")
	scaleFlag := flag.String("scale", "full", "workload scale: small or full")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = one per CPU, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	list := flag.Bool("list", false, "list experiment names and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Println(e.Name)
		}
		return
	}

	scale := experiments.FullScale()
	switch *scaleFlag {
	case "full":
	case "small":
		scale = experiments.SmallScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want small or full)\n", *scaleFlag)
		os.Exit(2)
	}

	var names []string
	if *runFlag == "" {
		for _, e := range experiments.Registry() {
			names = append(names, e.Name)
		}
	} else {
		names = strings.Split(*runFlag, ",")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	// The worker pool reports into this registry; the summary prints after
	// the run. Rendered artifacts never read it, so they stay byte-identical
	// whether or not metrics are on.
	reg := obs.NewRegistry()
	pool.RegisterMetrics(reg)

	ctx := experiments.NewContext(*seed, scale)
	ctx.Parallel = *parallel
	for _, name := range names {
		start := time.Now()
		id := strings.TrimSpace(name)
		res, err := experiments.Run(ctx, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("%s\n\n", res.Render())
		fmt.Fprintf(os.Stderr, "[%s regenerated in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "engine metrics:\n%s", reg.Snapshot().Summary())

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle live-heap accounting before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}
