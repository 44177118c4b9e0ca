// Command bench is the repository's benchmark. One process hosts two
// durable fleetd nodes on loopback, the regional delta poller that folds
// them and the load generator, and follows a hang's report along its
// whole path: device session under Hang Doctor → binary encode → upload →
// WAL group commit → shard merge → snapshot → regional delta poll. Four
// workloads stress different layers of that path (see README.md).
//
// Usage, from the repository root:
//
//	bash cmd/bench/run.sh --workload field --seed 1 --seconds 10 --trace 0
//	go -C cmd/bench run . -seed 1                  # all four workloads
//	go -C cmd/bench run . -workload region -trace out.json -out result.json
//
// A run prints every metric it measured; the JSON summary of an untraced
// run carries the end-to-end metrics. -trace 1 (or a file name) adds a
// traced run of the same inputs, whose summary carries the per-layer
// metrics, and prints the decomposition of report_to_region_ms and the
// tracing overhead. The last line of output is the JSON summary of the
// last workload run. The exit status is nonzero when an output is wrong.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// commit is stamped by run.sh; builds without it fall back to the VCS
// information the Go toolchain embeds.
var commit string

// workDir holds everything a run writes (WAL directories, traces),
// relative to the working directory.
const workDir = ".bench_build"

// Each workload builds its starting state at least minSetups times and
// until setupBudget of wall time has passed (at most maxSetups times);
// setup_s is the median build's CPU time, so a setup of a few
// milliseconds is timed many times.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

type runOpts struct {
	seed int64
	dir  string  // scratch directory for WAL files
	tr   *tracer // nil for an untraced run
}

// workload sizes one workload's fixed amount of work from the nominal
// measured length, so both sides of a comparison do the same work.
type workload struct {
	name string
	run  func(seconds int, o runOpts) (*result, error)
}

var workloads = []workload{
	{"field", func(sec int, o runOpts) (*result, error) {
		return runField(fieldParams{sessions: 60 * sec, actions: 120, pause: 250 * time.Millisecond}, o)
	}},
	{"ingest", func(sec int, o runOpts) (*result, error) {
		return runLoop(loopParams{name: "ingest", uploads: 1000 * sec, rate: 1000, entries: 4, devices: 4096,
			restartEvery: 512, pause: time.Second}, o)
	}},
	{"region", func(sec int, o runOpts) (*result, error) {
		return runLoop(loopParams{name: "region", uploads: 200 * sec, rate: 200, entries: 4, devices: 4096,
			restartEvery: 512, pause: 50 * time.Millisecond,
			prefill: 6000, prefillEntries: 16, prefillWorkers: 32}, o)
	}},
	{"fleetsim", func(sec int, o runOpts) (*result, error) {
		return runSim(simParams{devices: 200_000, uploads: 200_000 * int64(sec), entries: 4}, o)
	}},
}

func main() {
	name := flag.String("workload", "", "workload to run: field, ingest, region or fleetsim (default: all four)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 10, "nominal measured seconds; sets each workload's fixed amount of work")
	traceArg := flag.String("trace", "0", "0: untraced run; 1: add a traced run; a file name: as 1, and write its spans there as a Chrome trace")
	out := flag.String("out", "", "also write host metadata and every result as JSON to this file")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *traceArg, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("an output failed its correctness check")

func run(stdout io.Writer, name string, seed int64, seconds int, traceArg, out string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	var selected []workload
	for _, w := range workloads {
		if name == "" || w.name == name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	tracePath := ""
	switch traceArg {
	case "0", "":
	case "1":
		tracePath = filepath.Join(workDir, "trace.json")
	default:
		tracePath = traceArg
	}
	tmp := filepath.Join(workDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	h := hostInfo()
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n", h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.Commit)
	fmt.Fprintf(w, "seed=%d seconds=%d\n", seed, seconds)

	var results []*result
	var traces []namedTrace
	incorrect := false
	for _, wl := range selected {
		dir, err := os.MkdirTemp(tmp, wl.name+"-")
		if err != nil {
			return err
		}
		res, err := wl.run(seconds, runOpts{seed: seed, dir: dir})
		if err == nil && tracePath != "" {
			base := res
			tr := newTracer()
			res, err = wl.run(seconds, runOpts{seed: seed, dir: dir, tr: tr})
			if err == nil {
				base.writeHuman(w)
				writeTraced(w, base, res)
				traces = append(traces, namedTrace{wl.name, tr})
			}
		}
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		res.writeHuman(w)
		line, err := res.jsonLine()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", line)
		w.Flush()
		results = append(results, res)
		incorrect = incorrect || !res.correct
	}
	if tracePath != "" {
		if err := writeTraceFile(tracePath, traces); err != nil {
			return err
		}
	}
	if out != "" {
		if err := writeOut(out, h, seed, seconds, results); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// writeTraced prints what only the traced run shows: where a hang's time
// goes, span self times, and the tracing overhead against the untraced
// run of the same inputs.
func writeTraced(w io.Writer, base, traced *result) {
	if len(traced.path) > 0 {
		measured := traced.path[len(traced.path)-1].ms
		fmt.Fprintf(w, "== %s: where a hang's time goes (mean per acked upload, traced run)\n", traced.workload)
		for _, row := range traced.path {
			fmt.Fprintf(w, "  %-28s %10.3f ms %6.1f%%\n", row.name, row.ms, 100*ratio(row.ms, measured))
		}
	}
	fmt.Fprintf(w, "== %s: span self times\n", traced.workload)
	fmt.Fprintf(w, "  %-10s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, s := range traced.self {
		fmt.Fprintf(w, "  %-10s %8d %12.1f %12.1f\n", s.name, s.count, ms(s.total), ms(s.self))
	}
	fmt.Fprintf(w, "== %s: tracing overhead (traced vs untraced)\n", traced.workload)
	for _, defs := range [][]metricDef{e2eDefs, layerDefs, detailDefs} {
		for _, d := range defs {
			if !base.measured(d.name) || !traced.measured(d.name) {
				continue
			}
			b, t := base.values[d.name], traced.values[d.name]
			fmt.Fprintf(w, "  %-28s %12.4f → %12.4f %s (%+.1f%%)\n", d.name, b, t, d.unit, 100*ratio(t-b, b))
		}
	}
}

type namedTrace struct {
	workload string
	tr       *tracer
}

func writeTraceFile(path string, traces []namedTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, traces); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown",
		Go: runtime.Version(), Commit: commit}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if h.Commit == "" {
		h.Commit = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" && len(s.Value) >= 7 {
					h.Commit = s.Value[:7]
				}
			}
		}
	}
	return h
}

type metricJSON struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// writeOut records the run for the ledger: host metadata, and per
// workload every metric with its unit and sample count, and the digest.
func writeOut(path string, h host, seed int64, seconds int, results []*result) error {
	type wl struct {
		Correct bool                  `json:"correct"`
		Digest  string                `json:"digest"`
		Metrics map[string]metricJSON `json:"metrics"`
	}
	doc := struct {
		Host      host          `json:"host"`
		Seed      int64         `json:"seed"`
		Seconds   int           `json:"seconds"`
		Workloads map[string]wl `json:"workloads"`
	}{h, seed, seconds, map[string]wl{}}
	units := map[string]string{}
	for _, defs := range [][]metricDef{e2eDefs, layerDefs, detailDefs} {
		for _, d := range defs {
			units[d.name] = d.unit
		}
	}
	for _, r := range results {
		m := map[string]metricJSON{}
		for n, v := range r.values {
			m[n] = metricJSON{Value: v, Unit: units[n], Samples: r.samples[n]}
		}
		doc.Workloads[r.workload] = wl{Correct: r.correct, Digest: r.digest, Metrics: m}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// repeatSetup builds a workload's starting state repeatedly, keeping the
// last build, and records as setup_s the median process CPU time (user
// and system, every thread) of one build, a forced collection of the
// build's garbage included. CPU time rather than wall time, because on a
// shared virtual machine the wall time of a build of a few milliseconds
// follows the time the host steals more than the work the build does.
// Each build starts after a collection of the previous one's, so none
// pays for another's garbage.
func repeatSetup[T any](r *result, build func() (T, error), discard func(T)) (T, error) {
	var env T
	var times []float64
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if i > 0 {
			discard(env)
		}
		runtime.GC()
		t, cpu := time.Now(), processCPU()
		e, err := build()
		if err != nil {
			var zero T
			return zero, err
		}
		runtime.GC()
		spent += time.Since(t)
		times = append(times, (processCPU() - cpu).Seconds())
		env = e
	}
	r.setN("setup_s", quantile(times, 0.5), len(times))
	return env, nil
}
