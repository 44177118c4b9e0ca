package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"hangdoctor/internal/obs"
)

type metricDef struct{ name, unit string }

// e2eDefs are the end-to-end metrics of an untraced run's JSON summary,
// in BENCHMARK.json order. Each is defined on every workload: an "op" is
// a device action on field, an acked upload on ingest and region, and a
// delivered simulated upload on fleetsim. All are measured in CPU time or
// bytes, which time the host steals from a virtual machine moves far
// less than wall-clock numbers.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"live_heap_mb", "MB"},
}

// layerDefs are the per-layer metrics of a traced run's JSON summary, in
// BENCHMARK.json order. Every timing among them is measured on every
// workload; a count or ratio of a layer a workload does not exercise
// reads 0. ops_per_s, a wall-clock rate, is here and not end-to-end
// because its spread on a shared host exceeds any usable bound.
var layerDefs = []metricDef{
	{"ops_per_s", "1/s"},
	{"cpu_s", "s"},
	{"failed_ratio", "ratio"},
	{"app.actions", "count"},
	{"doctor.overhead_pct", "%"},
	{"doctor.diagnose_pct", "%"},
	{"doctor.hangs", "count"},
	{"doctor.detections", "count"},
	{"doctor.causal_fallbacks", "count"},
	{"binwire.bytes_per_upload", "bytes"},
	{"fleet.retries_409", "count"},
	{"fleet.retries_429", "count"},
	{"fleet.merge_ns.p50", "ns"},
	{"fleet.merge_batch", "count"},
	{"wal.fsyncs_per_upload", "count"},
	{"wal.bytes_per_upload", "bytes"},
	{"wal.compactions", "count"},
	{"fleet.snapshot_bytes", "bytes"},
	{"fleet.delta_requests", "count"},
	{"fleet.full_resyncs", "count"},
	{"regional.entries", "count"},
	{"sim.epoch_wait_ratio", "ratio"},
	{"sim.pool_wait_ratio", "ratio"},
	{"sim.epochs", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_s", "s"},
}

// detailDefs are the timings only some workloads define: the report's
// path through uploads and poll rounds (field, ingest and region; fleetsim
// has no HTTP hop and no poller), the device and its monitor (field) and
// the simulator (fleetsim). A run prints those it measured after its
// metrics; they stay out of the JSON summary, which carries the same
// metrics on every workload.
var detailDefs = []metricDef{
	{"ack_ms.p50", "ms"},
	{"ack_ms.p99", "ms"},
	{"report_to_region_ms.p50", "ms"},
	{"report_to_region_ms.p99", "ms"},
	{"regional.wait_ms.p50", "ms"},
	{"regional.poll_ms.p50", "ms"},
	{"regional.poll_ms.p99", "ms"},
	{"regional.apply_ms", "ms"},
	{"fleet.upload_rtt_ms.p50", "ms"},
	{"fleet.upload_rtt_ms.p99", "ms"},
	{"fleet.snapshot_fetch_ms.p50", "ms"},
	{"fleet.snapshot_fetch_ms.p99", "ms"},
	{"fleet.queue_depth_max", "count"},
	{"gen.lateness_ms.max", "ms"},
	{"binwire.encode_us", "us"},
	{"monitor_us_per_action", "us"},
	{"app.perform_us", "us"},
	{"doctor.action_start_us", "us"},
	{"doctor.event_us", "us"},
	{"doctor.action_end_us", "us"},
	{"doctor.diagnose_us", "us"},
	{"doctor.scheck_ns.p50", "ns"},
	{"doctor.report_fold_ns.p50", "ns"},
	{"sim.epoch_wait_ms.p50", "ms"},
}

// result is one workload run: its verdict, its counts and every metric
// value, with the sample count behind each timing.
type result struct {
	workload  string
	traced    bool
	correct   bool
	attempted int64
	failed    int64
	digest    string
	notes     []string // correctness-gate findings
	values    map[string]float64
	samples   map[string]int
	path      []pathRow  // traced: where a hang's time goes
	self      []selfTime // traced: per-span-name self times
}

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced, correct: true,
		values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) setN(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// defs returns the metrics this run reports: end-to-end untraced,
// per-layer traced.
func (r *result) defs() []metricDef {
	if r.traced {
		return layerDefs
	}
	return e2eDefs
}

// writeHuman prints every metric the run measured by name with its unit
// and sample count: end-to-end, per-layer, then workload-specific.
func (r *result) writeHuman(w io.Writer) {
	kind := "untraced"
	if r.traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s: %s run\n", r.workload, kind)
	for _, defs := range [][]metricDef{e2eDefs, layerDefs, detailDefs} {
		for _, d := range defs {
			if r.measured(d.name) {
				r.writeMetric(w, d)
			}
		}
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d digest=%s\n", r.correct, r.attempted, r.failed, r.digest)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  gate: %s\n", n)
	}
}

// measured reports whether the run set the metric, from at least one
// sample if it is a timing.
func (r *result) measured(name string) bool {
	_, set := r.values[name]
	n, timed := r.samples[name]
	return set && (!timed || n > 0)
}

func (r *result) writeMetric(w io.Writer, d metricDef) {
	line := fmt.Sprintf("  %-28s %14.4f %s", d.name, r.values[d.name], d.unit)
	if n, ok := r.samples[d.name]; ok {
		line += fmt.Sprintf("  (n=%d)", n)
	}
	fmt.Fprintln(w, line)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine is the machine-readable summary: the last line of output.
func (r *result) jsonLine() ([]byte, error) {
	m := make(map[string]metricOut, len(r.defs()))
	for _, d := range r.defs() {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is not finite", r.workload, d.name)
		}
		m[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.correct, r.attempted, r.failed, m})
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (0 for no samples). It sorts vs.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	if lo+1 >= len(vs) {
		return vs[len(vs)-1]
	}
	return vs[lo] + (vs[lo+1]-vs[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func perUnit(total time.Duration, n int64, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(unit) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phase captures process-wide counters at the start of a measured phase.
type phase struct {
	cpu      time.Duration
	gcCycles uint64
	gcCPU    float64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCounters() (cycles uint64, cpuSec float64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		cpuSec = s[1].Value.Float64()
	}
	return cycles, cpuSec
}

// beginPhase starts a measured phase: clk's epoch moves to now, and tr
// drops the spans setup recorded (the setup builds' initial full polls),
// so only the measured phase is traced.
func beginPhase(clk *clock, tr *tracer) phase {
	p := phase{cpu: processCPU()}
	p.gcCycles, p.gcCPU = gcCounters()
	tr.clear()
	clk.reset()
	return p
}

// end closes the phase once its load is done: ops_per_s is the ops
// completed over the time the load ran, cpu_us_per_op the process CPU of
// the whole phase per op, and the phase's GC work is recorded alongside.
func (p phase) end(r *result, ops int64, busy time.Duration) {
	cpu := processCPU() - p.cpu
	r.setN("ops_per_s", ratio(float64(ops), busy.Seconds()), int(ops))
	r.set("cpu_us_per_op", ratio(float64(cpu)/float64(time.Microsecond), float64(ops)))
	r.set("cpu_s", cpu.Seconds())
	cycles, gcCPU := gcCounters()
	r.set("go.gc_cycles", float64(cycles-p.gcCycles))
	r.set("go.gc_cpu_s", gcCPU-p.gcCPU)
}

// recordLiveHeap records the heap still reachable after a forced
// collection. Callers first drop what only the load generator and the
// gate held (generated uploads, acked reports), so what remains is the
// system's state.
func recordLiveHeap(r *result) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("live_heap_mb", float64(m.HeapAlloc)/(1<<20))
}

// histDiff is the part of histogram name observed between two snapshots.
func histDiff(after, before obs.Snapshot, name string) obs.HistogramSnapshot {
	a, b := after.Histogram(name), before.Histogram(name)
	if len(b.Counts) != len(a.Counts) {
		return a
	}
	d := obs.HistogramSnapshot{Bounds: a.Bounds, Counts: make([]uint64, len(a.Counts)),
		Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	for i := range a.Counts {
		d.Counts[i] = a.Counts[i] - b.Counts[i]
	}
	return d
}

// fleetLayers records the merge, read-path and WAL counters the nodes
// accumulated between two registry snapshots.
func fleetLayers(r *result, before, after obs.Snapshot, acked int) {
	delta := func(name string) float64 { return float64(after.Value(name) - before.Value(name)) }
	merge := histDiff(after, before, "hangdoctor_fleet_merge_latency_ns")
	r.setN("fleet.merge_ns.p50", merge.Quantile(0.5), int(merge.Count))
	r.set("fleet.merge_batch", ratio(delta("hangdoctor_fleet_merged_fragments_total"), delta("hangdoctor_fleet_merges_total")))
	r.set("fleet.delta_requests", delta("hangdoctor_fleet_delta_requests_total"))
	r.set("fleet.full_resyncs", delta("hangdoctor_fleet_full_resyncs_total"))
	r.set("wal.fsyncs_per_upload", ratio(delta("hangdoctor_fleet_wal_fsyncs_total"), float64(acked)))
	r.set("wal.bytes_per_upload", ratio(delta("hangdoctor_fleet_wal_bytes_written_total"), float64(acked)))
	r.set("wal.compactions", delta("hangdoctor_fleet_wal_compactions_total"))
}
