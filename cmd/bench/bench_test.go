package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fleet"
)

// Tiny versions of the four workloads: the same code paths at sizes a
// race-detector run finishes in seconds.
var tinyWorkloads = []struct {
	name string
	http bool // uploads over HTTP, read by the regional poller
	run  func(o runOpts) (*result, error)
}{
	{"field", true, func(o runOpts) (*result, error) {
		return runField(fieldParams{sessions: 3, actions: 20, pause: 20 * time.Millisecond}, o)
	}},
	{"ingest", true, func(o runOpts) (*result, error) {
		return runLoop(loopParams{name: "ingest", uploads: 60, rate: 600, entries: 4, devices: 16,
			restartEvery: 8, pause: 20 * time.Millisecond}, o)
	}},
	{"region", true, func(o runOpts) (*result, error) {
		return runLoop(loopParams{name: "region", uploads: 30, rate: 300, entries: 4, devices: 16,
			restartEvery: 8, pause: 5 * time.Millisecond, prefill: 40, prefillEntries: 16, prefillWorkers: 4}, o)
	}},
	{"fleetsim", false, func(o runOpts) (*result, error) {
		return runSim(simParams{devices: 500, uploads: 5000, entries: 4}, o)
	}},
}

// pathMetrics are the timings of a report's path to the region, which
// every HTTP workload must measure.
var pathMetrics = []string{"ack_ms.p50", "ack_ms.p99", "report_to_region_ms.p50", "report_to_region_ms.p99",
	"regional.wait_ms.p50", "regional.poll_ms.p50", "fleet.upload_rtt_ms.p50", "fleet.snapshot_fetch_ms.p50",
	"regional.apply_ms"}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestCatalogMatchesBenchmarkJSON pins the metric lists the program
// prints to the ones BENCHMARK.json declares, with their units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2eDefs)
	check("per_layer", bj.PerLayer, layerDefs)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, bj.Workloads[i].Name, w.name)
		}
	}
}

// TestWorkloads runs every workload untraced and traced, twice with one
// seed: every declared metric is emitted and finite (end-to-end ones and
// per-layer timings positive), the correctness gate passes, the digests
// repeat, and on the HTTP workloads the path timings are measured, the
// trace holds exactly the measured phase's snapshot fetches (one per node
// and round) and its decomposition of report_to_region_ms sums to the
// mean.
func TestWorkloads(t *testing.T) {
	for _, w := range tinyWorkloads {
		t.Run(w.name, func(t *testing.T) {
			first, err := w.run(runOpts{seed: 7, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			again, err := w.run(runOpts{seed: 7, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			traced, err := w.run(runOpts{seed: 7, dir: t.TempDir(), tr: newTracer()})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{first, again, traced} {
				if !r.correct {
					t.Errorf("correctness gate failed: %v", r.notes)
				}
				if r.attempted < 1 || r.failed != 0 {
					t.Errorf("attempted=%d failed=%d", r.attempted, r.failed)
				}
			}
			for d, v := range emitted(t, first, e2eDefs) {
				if v <= 0 {
					t.Errorf("end-to-end %s = %v, want positive", d, v)
				}
			}
			layer := emitted(t, traced, layerDefs)
			for _, d := range layerDefs {
				if timeUnits[d.unit] && layer[d.name] <= 0 {
					t.Errorf("per-layer timing %s = %v, want positive", d.name, layer[d.name])
				}
			}
			if first.digest == "" || first.digest != again.digest || first.digest != traced.digest {
				t.Errorf("digests differ across runs of one seed: %s %s %s", first.digest, again.digest, traced.digest)
			}
			if !w.http {
				return
			}
			for _, name := range pathMetrics {
				if !traced.measured(name) || traced.values[name] <= 0 {
					t.Errorf("path timing %s = %v (n=%d), want positive", name, traced.values[name], traced.samples[name])
				}
			}
			fetches, rounds := traced.samples["fleet.snapshot_fetch_ms.p50"], traced.samples["regional.poll_ms.p50"]
			if fetches != nodes*rounds {
				t.Errorf("trace holds %d snapshot fetches for %d poll rounds of %d nodes", fetches, rounds, nodes)
			}
			if len(traced.path) == 0 {
				t.Fatal("traced run produced no path decomposition")
			}
			sum, mean := traced.path[len(traced.path)-2].ms, traced.path[len(traced.path)-1].ms
			if math.Abs(sum-mean) > 0.01*mean {
				t.Errorf("decomposition sums to %.3f ms, report_to_region_ms mean is %.3f ms", sum, mean)
			}
		})
	}
}

// timeUnits are the units of timings, which every workload must measure.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

// emitted decodes a run's JSON summary line and checks it carries exactly
// the declared metrics with their units.
func emitted(t *testing.T, r *result, defs []metricDef) map[string]float64 {
	t.Helper()
	line, err := r.jsonLine()
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Metrics) != len(defs) {
		t.Errorf("summary has %d metrics, want %d", len(out.Metrics), len(defs))
	}
	vals := map[string]float64{}
	for _, d := range defs {
		m, ok := out.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("summary lacks %s (%s)", d.name, d.unit)
		}
		vals[d.name] = m.Value
	}
	return vals
}

// TestGateCatchesLostUpload shows the gate is not vacuous: a region that
// misses one acked upload fails it, while a region whose key-colliding
// entries arrived in another order (different first-writer metadata)
// passes.
func TestGateCatchesLostUpload(t *testing.T) {
	var ups []*core.Report
	for i := 0; i < 20; i++ {
		ups = append(ups, fleet.SyntheticUpload(int64(i), "dev", 4))
	}
	r := newResult("gate", false)
	gate(r, core.FoldReports(ups[1:]...), ups)
	if r.correct {
		t.Error("gate accepted a region that lost an acked upload")
	}

	a, b := core.NewReport(), core.NewReport()
	a.Add("app", "d1", "app/A", core.Diagnosis{RootCause: "Op.run", File: "Op.java", Line: 3}, 200)
	b.Add("app", "d2", "app/A", core.Diagnosis{RootCause: "Op.run", File: "Op.java", Line: 3, ViaCaller: true}, 300)
	r = newResult("gate", false)
	gate(r, core.FoldReports(b, a), []*core.Report{a, b})
	if !r.correct {
		t.Errorf("gate rejected a region that differs only in first-writer metadata: %v", r.notes)
	}
}

func TestCovered(t *testing.T) {
	p := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 20}, {start: 15, end: 30}, {start: 50, end: 60}, {start: 90, end: 120}}
	if got := covered(p, kids); got != 40 {
		t.Errorf("covered = %v, want 40", got)
	}
}
