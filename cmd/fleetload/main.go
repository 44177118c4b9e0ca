// Command fleetload drives a simulated device fleet against the fleet
// ingestion layer through the sharded virtual-time engine in internal/sim:
// millions of devices uploading Hang Bug Reports on a realistic cadence,
// in-process straight into a sharded aggregator, or with -url over HTTP
// against running fleetd nodes — the binary protocol with per-device
// dictionary deltas, device restarts, 409 resyncs and 429 backoff, devices
// ring-routed to nodes like production clients. With -url, -poll also
// delta-polls the nodes while the fleet uploads, so folds race ingest.
// The default fleet is smoke-sized (100 devices, 500 uploads); give
// -sim-devices and -sim-uploads for real load. Shard scaling of the ingest
// layer itself is measured by go test -bench Ingest ./internal/fleet/.
//
// Usage:
//
//	fleetload -sim-devices 1000000 -sim-uploads 2000000
//	fleetload -url http://node1:8717,http://node2:8717 -sim-devices 4096 -sim-uploads 8192 -poll 200ms
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fleet"
	"hangdoctor/internal/sim"
)

func main() {
	url := flag.String("url", "", "fleetd base URL(s), comma-separated for ring routing; empty runs the fleet in-process")
	seed := flag.Int64("seed", 1, "simulation seed")
	maxRetries := flag.Int("max-retries", 8, "give up on an upload after this many 409/429/transport retries")
	devices := flag.Int("sim-devices", 100, "distinct devices in the fleet")
	uploads := flag.Int64("sim-uploads", 500, "total uploads the fleet sends")
	entries := flag.Int("sim-entries", 4, "root causes per upload (devices report small deltas often)")
	shards := flag.Int("sim-shards", 8, "aggregator shards for an in-process run")
	workers := flag.Int("sim-workers", 0, "simulation worker shards (0 = GOMAXPROCS)")
	epochMS := flag.Int64("sim-epoch-ms", 60_000, "virtual-time barrier interval in simulated ms")
	restartEvery := flag.Int64("sim-restart-every", 512, "1/N chance an upload follows a device restart (dictionary reset)")
	batch := flag.Int("sim-batch", 64, "device uploads coalesced per aggregator submission (in-process)")
	poll := flag.Duration("poll", 0, "with -url, delta-poll the node(s) at this interval while the fleet uploads (0 = off)")
	flag.Parse()

	cfg := sim.Config{
		Devices:      *devices,
		Uploads:      *uploads,
		Entries:      *entries,
		Workers:      *workers,
		Seed:         *seed,
		EpochMS:      *epochMS,
		RestartEvery: *restartEvery,
		Batch:        *batch,
		MaxRetries:   *maxRetries,
	}
	var agg *fleet.Aggregator
	mode := "inproc"
	if *url == "" {
		agg = fleet.NewAggregator(fleet.Config{Shards: *shards, QueueDepth: 4096})
		cfg.Agg = agg
	} else {
		cfg.Nodes, mode = splitNodes(*url), "http"
	}
	eng, err := sim.New(cfg)
	if err != nil {
		log.Fatalf("fleetload: %v", err)
	}
	stopPoll := func() {}
	if *poll > 0 && len(cfg.Nodes) > 0 {
		stopPoll = startPoller(cfg.Nodes, *poll)
	}
	fmt.Printf("simulating %d devices, %d uploads (%d entries each): %s sink, %d workers\n",
		cfg.Devices, cfg.Uploads, cfg.Entries, mode, eng.Workers())
	st, err := eng.Run()
	if err != nil {
		log.Fatalf("fleetload: sim run: %v", err)
	}
	fmt.Printf("sim: delivered %d uploads in %v: %.0f uploads/s, %.3g simulated device-seconds/s\n",
		st.Uploads, st.Wall.Round(time.Millisecond), float64(st.Uploads)/st.Wall.Seconds(),
		st.DeviceSecondsPerSec())
	fmt.Printf("sim: failed=%d resyncs=%d server-resyncs=%d throttled=%d epochs=%d wire=%.1f MiB\n",
		st.Failed, st.Resyncs, st.ServerResyncs, st.Throttled, st.Epochs,
		float64(st.WireBytes)/(1<<20))
	if agg != nil {
		agg.Close()
		rep := agg.Fold()
		fmt.Printf("fleet report: %d root causes, %d diagnosed hangs\n", rep.Len(), rep.TotalHangs())
	} else {
		h := eng.Registry().Snapshot().Histogram("hangdoctor_sim_upload_rtt_ms")
		fmt.Printf("upload latency: p50=%.2fms p95=%.2fms p99=%.2fms (%d round trips)\n",
			h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Count)
	}
	stopPoll()
	if st.Failed > 0 {
		os.Exit(1)
	}
}

// startPoller exercises the incremental read path while the load runs: a
// Regional delta-polls the target nodes at the given interval (echoing
// version vectors, applying deltas) and prints what it saw on stop. This
// is the read half of the load story — folds race ingest instead of
// running against a quiet fleet.
func startPoller(nodes []string, interval time.Duration) (stop func()) {
	reg := fleet.NewRegional(nodes, &http.Client{Timeout: 10 * time.Second})
	reg.NodeTimeout = 5 * time.Second
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var rounds, deltas, failed int
		var last *core.Report
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				if rounds > 0 && last != nil {
					fmt.Printf("poller: %d rounds (%d delta answers, %d node failures), final view: %d causes, %d hangs\n",
						rounds, deltas, failed, last.Len(), last.TotalHangs())
				}
				return
			case <-tick.C:
				res := reg.PollDelta(context.Background())
				rounds++
				deltas += res.Deltas
				failed += res.Failed
				last = res.Report
			}
		}
	}()
	return func() { close(done); <-finished }
}

// splitNodes parses a comma-separated -url list.
func splitNodes(urls string) []string {
	var nodes []string
	for _, u := range strings.Split(urls, ",") {
		if u = strings.TrimSpace(u); u != "" {
			nodes = append(nodes, strings.TrimRight(u, "/"))
		}
	}
	return nodes
}
