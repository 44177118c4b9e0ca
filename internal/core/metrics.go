package core

import (
	"hangdoctor/internal/fault"
	"hangdoctor/internal/obs"
	"hangdoctor/internal/perf"
)

// doctorMetrics is the Doctor's per-instance obs registry. The existing
// plain-int accounting (Health, detect.Log, Telemetry) stays the source of
// truth — callback metrics project it into the registry at snapshot time,
// so the hot paths pay nothing for the second surface. Only quantities
// whose distribution matters (hang response, S-Checker decision latency,
// stack-collection duration, report-fold time) additionally feed real
// histograms.
//
// Two clocks feed the histograms, deliberately: hang response and
// stack-collection durations are simulated time (what the app experienced,
// reproducible from the seed), while S-Checker and report-fold latencies
// are wall-clock (what the monitor itself costs on the machine running
// it). Neither feeds a rendered artifact, so experiment outputs remain
// byte-identical across hosts.
type doctorMetrics struct {
	reg  *obs.Registry
	perf *perf.Metrics

	hangResponseMs  *obs.Histogram
	scheckLatencyNs *obs.Histogram
	stackCollectMs  *obs.Histogram
	reportFoldNs    *obs.Histogram
}

func newDoctorMetrics(d *Doctor) *doctorMetrics {
	reg := obs.NewRegistry()
	m := &doctorMetrics{
		reg:  reg,
		perf: perf.NewMetrics(reg),
		hangResponseMs: reg.Histogram("hangdoctor_hang_response_ms",
			"Response time of soft-hang action executions (simulated ms).",
			obs.ExpBuckets(25, 2, 12)),
		scheckLatencyNs: reg.Histogram("hangdoctor_scheck_latency_ns",
			"Wall-clock latency of one S-Checker decision.",
			obs.ExpBuckets(128, 4, 10)),
		stackCollectMs: reg.Histogram("hangdoctor_stack_collection_ms",
			"Simulated duration of one diagnosis stack-collection burst.",
			obs.ExpBuckets(5, 2, 12)),
		reportFoldNs: reg.Histogram("hangdoctor_report_fold_ns",
			"Wall-clock latency of folding one diagnosis into the report.",
			obs.ExpBuckets(128, 4, 10)),
	}
	for _, c := range healthCounters {
		v := c.field(&d.health)
		reg.CounterFunc("hangdoctor_health_"+c.stem+"_total", c.help, func() int64 { return int64(*v) })
	}
	reg.CounterFunc("hangdoctor_actions_total",
		"Action executions observed.",
		func() int64 { return d.execsSeen })
	reg.CounterFunc("hangdoctor_hangs_total",
		"Action executions above the perceivable delay.",
		func() int64 { return d.hangsSeen })
	reg.CounterFunc("hangdoctor_monitor_cost_ns_total",
		"Accounted detector CPU cost (simulated ns).",
		func() int64 { return d.log.CostNs })
	reg.CounterFunc("hangdoctor_monitor_mem_bytes_total",
		"Accounted detector memory footprint (bytes).",
		func() int64 { return d.log.MemUsed })
	// Injected-fault ground truth, read through the session because the
	// injector is installed (SetFaults) after the detector attaches.
	fault.RegisterStats(reg, func() fault.Stats {
		if d.session == nil {
			return fault.Stats{}
		}
		return d.session.Faults().Stats()
	})
	return m
}

// Metrics returns a deterministic point-in-time snapshot of the Doctor's
// metrics registry: health and accounting counters, perf-plane counters,
// injected-fault ground truth (once attached to a faulted session), and
// the four stage-latency histograms. Snapshots from many Doctors merge
// with obs.MergeSnapshots.
func (d *Doctor) Metrics() obs.Snapshot { return d.metrics.reg.Snapshot() }
