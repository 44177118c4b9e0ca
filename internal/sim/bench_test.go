package sim

import (
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"

	"hangdoctor/internal/fleet"
)

// bench_test.go: BenchmarkSimEngine produces the rows committed to
// BENCH_sim.json (whose baseline-pr7 row came from a since-deleted replica
// of the single-heap scheduler the engine replaced):
//
//   inproc/workers=N    the engine end to end into a sharded aggregator
//   sched/workers=N     discard sink: scheduler + draw + entry fill only —
//                       the worker-scaling gate runs on these rows
//   tick                warm steady-state tick, 0 allocs/op gate
//   tick-http           warm tick through the full binary document encode
//
// Every row reports ns per device upload (Uploads = b.N), so throughput is
// 1e9/ns_per_op uploads/s. SIM_BENCH_DEVICES overrides the resident fleet
// size (default 1e6; BENCH_sim.json is generated at the default).

func benchDevices() int {
	if s := os.Getenv("SIM_BENCH_DEVICES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 1_000_000
}

const benchEntries = 4

func BenchmarkSimEngine(b *testing.B) {
	devices := benchDevices()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("inproc/workers=%d", w), func(b *testing.B) {
			benchEngine(b, Config{
				Devices: devices,
				Entries: benchEntries,
				Workers: w,
				Seed:    1,
			}, true)
		})
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sched/workers=%d", w), func(b *testing.B) {
			benchEngine(b, Config{
				Devices: devices,
				Entries: benchEntries,
				Workers: w,
				Seed:    1,
			}, false)
		})
	}
	b.Run("tick", func(b *testing.B) {
		b.ReportAllocs()
		benchEngine(b, Config{
			Devices: 4096,
			Entries: benchEntries,
			Workers: 1,
			Seed:    1,
		}, false)
	})
	b.Run("tick-http", func(b *testing.B) {
		b.ReportAllocs()
		benchEngine(b, Config{
			Devices:     4096,
			Entries:     benchEntries,
			Workers:     1,
			Seed:        1,
			discardHTTP: true,
		}, false)
	})
}

// benchEngine builds a fresh engine sized to b.N uploads (build excluded
// from the measurement) and runs it to completion.
func benchEngine(b *testing.B, cfg Config, inproc bool) {
	cfg.Uploads = int64(b.N)
	var agg *fleet.Aggregator
	if inproc {
		agg = fleet.NewAggregator(fleet.Config{Shards: 8, QueueDepth: 4096})
		cfg.Agg = agg
	}
	eng, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	st, err := eng.Run()
	if inproc {
		agg.Close() // the measurement covers every merge
	}
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if st.Uploads+st.Failed != int64(b.N) || st.Failed != 0 {
		b.Fatalf("delivered %d/%d uploads (failed=%d)", st.Uploads, b.N, st.Failed)
	}
	b.ReportMetric(st.DeviceSecondsPerSec(), "simdev-s/s")
}

// BenchmarkSimEngineHTTP is the small wire-path row: the engine against a
// real fleetd handler over loopback HTTP. Not part of the scaling gates —
// the HTTP stack dominates — but it keeps the full-protocol cost visible.
func BenchmarkSimEngineHTTP(b *testing.B) {
	agg := fleet.NewAggregator(fleet.Config{Shards: 4})
	srv := httptest.NewServer(fleet.NewServerDict(agg, 65536).Handler())
	defer srv.Close()
	defer agg.Close()
	eng, err := New(Config{
		Devices: 8192,
		Uploads: int64(b.N),
		Entries: benchEntries,
		Workers: 2,
		Seed:    1,
		Nodes:   []string{srv.URL},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	st, err := eng.Run()
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if st.Failed != 0 {
		b.Fatalf("failed=%d", st.Failed)
	}
}
