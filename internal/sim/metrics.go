package sim

import (
	"strconv"

	"hangdoctor/internal/obs"
)

// metrics.go: the engine's observability surface, projected lock-free —
// every counter is a CounterFunc summing per-worker atomics, so scraping
// never touches the tick path. Per-worker gauges (heap depth) and the
// barrier-wait histogram are written only at epoch boundaries; the upload
// round-trip histogram once per HTTP attempt.

func (e *Engine) registerMetrics() {
	reg := e.reg
	sum := func(f func(*worker) int64) func() int64 {
		return func() int64 {
			var t int64
			for i := range e.workers {
				t += f(&e.workers[i])
			}
			return t
		}
	}
	reg.CounterFunc("hangdoctor_sim_uploads_total",
		"Device uploads delivered by the simulation engine.",
		sum(func(w *worker) int64 { return w.uploads.Load() }))
	reg.CounterFunc("hangdoctor_sim_entries_total",
		"Hang entries across delivered uploads.",
		sum(func(w *worker) int64 { return w.entriesN.Load() }))
	reg.CounterFunc("hangdoctor_sim_failed_total",
		"Uploads lost to sink errors.",
		sum(func(w *worker) int64 { return w.failed.Load() }))
	reg.CounterFunc("hangdoctor_sim_resyncs_total",
		"Client-side dictionary resets (simulated device restarts).",
		sum(func(w *worker) int64 { return w.resyncs.Load() }))
	reg.CounterFunc("hangdoctor_sim_server_resyncs_total",
		"Server-initiated 409 dictionary resyncs absorbed.",
		sum(func(w *worker) int64 { return w.serverResyncs.Load() }))
	reg.CounterFunc("hangdoctor_sim_throttled_total",
		"429 backpressure responses absorbed.",
		sum(func(w *worker) int64 { return w.throttled.Load() }))
	reg.CounterFunc("hangdoctor_sim_wire_bytes_total",
		"Binary document bytes put on the wire (HTTP mode).",
		sum(func(w *worker) int64 { return w.wireBytes.Load() }))
	reg.CounterFunc("hangdoctor_sim_device_ms_total",
		"Simulated device time advanced, summed over devices (ms).",
		sum(func(w *worker) int64 { return w.deviceMS.Load() }))
	reg.GaugeFunc("hangdoctor_sim_epoch",
		"Minimum virtual-time epoch across workers (epoch lag floor).",
		func() int64 {
			var min int64 = -1
			for i := range e.workers {
				if ep := e.workers[i].epochNum.Load(); min < 0 || ep < min {
					min = ep
				}
			}
			if min < 0 {
				min = 0
			}
			return min
		})
	depth := reg.GaugeVec("hangdoctor_sim_heap_depth",
		"Devices still scheduled on each worker's event heap.", "worker")
	wait := reg.Histogram("hangdoctor_sim_epoch_wait_ms",
		"Barrier wait at virtual-time epoch boundaries (ms).",
		obs.ExpBuckets(0.01, 2, 16))
	rtt := reg.Histogram("hangdoctor_sim_upload_rtt_ms",
		"Round-trip wall time of each answered upload POST attempt (ms, HTTP mode).",
		obs.ExpBuckets(0.25, 2, 16))
	for i := range e.workers {
		e.workers[i].depthG = depth.With(strconv.Itoa(i))
		e.workers[i].waitH = wait
		e.workers[i].rttH = rtt
	}
}
