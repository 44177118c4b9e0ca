package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hangdoctor/internal/fault"
	"hangdoctor/internal/golden"
	"hangdoctor/internal/obs"
	"hangdoctor/internal/simclock"
)

// metricsSchema renders a snapshot's families, sorted by name, as one line
// each of name, kind, help and label names: the exposition schema without
// its values.
func metricsSchema(s obs.Snapshot) []byte {
	var b bytes.Buffer
	for _, f := range s.Families {
		fmt.Fprintf(&b, "%s %s %q %q\n", f.Name, f.Kind, f.Help, f.LabelNames)
	}
	return b.Bytes()
}

// TestDoctorMetricsSchemaGolden pins the Doctor's exposition schema after
// a short K9-Mail session: a renamed, retyped, re-helped or added family
// changes the digest.
func TestDoctorMetricsSchemaGolden(t *testing.T) {
	d, _ := runFaulted(t, "K9-Mail", Config{}, 11, 40, nil)
	golden.Check(t, "doctor-metrics-schema.txt", metricsSchema(d.Metrics()))
}

// TestDoctorMetricsMirrorAccounting checks the tentpole contract of the
// obs refactor: the registry snapshot is a projection of the Doctor's
// existing accounting, not a second bookkeeping system that can drift.
// Every health counter, the action/hang totals, and the monitor cost must
// equal the plain-int sources after a run.
func TestDoctorMetricsMirrorAccounting(t *testing.T) {
	d, _ := runFaulted(t, "K9-Mail", Config{}, 11, 140, nil)
	snap := d.Metrics()

	if got := snap.Value("hangdoctor_actions_total"); got == 0 || got != d.execsSeen {
		t.Errorf("actions_total = %d, want %d (nonzero)", got, d.execsSeen)
	}
	hangs := snap.Value("hangdoctor_hangs_total")
	if hangs == 0 || hangs != d.hangsSeen {
		t.Errorf("hangs_total = %d, want %d (nonzero)", hangs, d.hangsSeen)
	}
	if hist := snap.Histogram("hangdoctor_hang_response_ms"); hist.Count != uint64(hangs) {
		t.Errorf("hang_response_ms count = %d, want one observation per hang (%d)", hist.Count, hangs)
	}
	if got := snap.Value("hangdoctor_monitor_cost_ns_total"); got != d.log.CostNs {
		t.Errorf("monitor_cost_ns_total = %d, want %d", got, d.log.CostNs)
	}
	if got := snap.Value("hangdoctor_monitor_mem_bytes_total"); got != d.log.MemUsed {
		t.Errorf("monitor_mem_bytes_total = %d, want %d", got, d.log.MemUsed)
	}
	h := d.Health()
	h.EachCounter(func(stem string, want int) {
		name := "hangdoctor_health_" + stem + "_total"
		if got := snap.Value(name); got != int64(want) {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	})
	if got := snap.Value("hangdoctor_perf_sessions_opened_total"); got == 0 {
		t.Error("perf_sessions_opened_total = 0 after a full run")
	}
	// The S-Checker ran at least once per Uncategorized hang; its wall-clock
	// latency histogram must have recorded those decisions.
	if hist := snap.Histogram("hangdoctor_scheck_latency_ns"); hist.Count == 0 {
		t.Error("scheck_latency_ns recorded no decisions")
	}
}

// TestDoctorMetricsFaultGroundTruth runs a hostile plane and checks that
// the injector's delivered-fault counts surface on the same snapshot as
// the Doctor's health view, and that the Prometheus exposition carries
// all three metric kinds.
func TestDoctorMetricsFaultGroundTruth(t *testing.T) {
	inj := fault.New(7, fault.Rates{PerfOpenFail: 0.5, StackMiss: 0.5})
	d, _ := runFaulted(t, "K9-Mail", Config{}, 11, 140, inj)
	snap := d.Metrics()
	st := inj.Stats()
	if st.PerfOpenFails == 0 {
		t.Fatal("precondition failed: no perf-open faults delivered at rate 0.5")
	}
	if got := snap.Value("hangdoctor_fault_perf_open_fails_total"); got != int64(st.PerfOpenFails) {
		t.Errorf("fault_perf_open_fails_total = %d, want %d", got, st.PerfOpenFails)
	}
	if got := snap.Value("hangdoctor_fault_stacks_missed_total"); got != int64(st.StacksMissed) {
		t.Errorf("fault_stacks_missed_total = %d, want %d", got, st.StacksMissed)
	}

	text := snap.String()
	for _, want := range []string{
		"# TYPE hangdoctor_actions_total counter",
		"# TYPE hangdoctor_hang_response_ms histogram",
		`hangdoctor_hang_response_ms_bucket{le="+Inf"}`,
		"hangdoctor_health_perf_open_failures_total",
		"hangdoctor_fault_perf_open_fails_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestPercentileCacheCorrectAndInvalidated pins the Percentile fix: the
// cached sorted view must return the same interpolated values as the old
// sort-per-call implementation, and a Record between calls must refresh
// it.
func TestPercentileCacheCorrectAndInvalidated(t *testing.T) {
	tel := NewTelemetry(100 * simclock.Millisecond)
	for _, ms := range []int{30, 10, 20} {
		tel.Record("a", simclock.Duration(ms)*simclock.Millisecond)
	}
	s := tel.Action("a")
	if got := s.Percentile(0.5); got != 20 {
		t.Fatalf("p50 of {10,20,30} = %v, want 20", got)
	}
	if got := s.Percentile(0); got != 10 {
		t.Fatalf("p0 = %v, want 10", got)
	}
	if got := s.Percentile(1); got != 30 {
		t.Fatalf("p100 = %v, want 30", got)
	}
	// Interpolation between ranks: pos = 0.25*(3-1) = 0.5 → midway 10..20.
	if got, want := s.Percentile(0.25), 15.0; got != want {
		t.Fatalf("p25 = %v, want %v", got, want)
	}
	// A new sample must invalidate the cached order.
	tel.Record("a", 1000*simclock.Millisecond)
	if got, want := s.Percentile(0.5), 25.0; got != want { // {10,20,30,1000}, pos 1.5
		t.Fatalf("p50 after insert = %v, want %v", got, want)
	}
	if got := s.Percentile(1); got != 1000 {
		t.Fatalf("p100 after insert = %v, want 1000", got)
	}
}

// TestPercentileWarmZeroAlloc is the regression guard for the satellite
// fix: Percentile used to copy and sort the whole reservoir on every
// call, so rendering one dashboard row cost three sorts. A warm stats row
// must now answer any number of percentile queries without allocating.
func TestPercentileWarmZeroAlloc(t *testing.T) {
	tel := NewTelemetry(100 * simclock.Millisecond)
	for i := 0; i < 2*maxReservoir; i++ {
		tel.Record("a", simclock.Duration(i%400)*simclock.Millisecond)
	}
	s := tel.Action("a")
	s.Percentile(0.5) // build the cache
	allocs := testing.AllocsPerRun(100, func() {
		_ = s.Percentile(0.50)
		_ = s.Percentile(0.95)
		_ = s.Percentile(0.99)
	})
	if allocs != 0 {
		t.Fatalf("warm Percentile allocates %.1f objects per render, want 0", allocs)
	}
}
