// Command fleetd is the fleet ingestion server: the always-on half of the
// paper's §3.2 upload path. Devices POST their anonymized Hang Bug Reports
// to /v1/upload; fleetd validates each document, merges its entries into
// shards, each behind its own lock, behind a bounded set of admission
// slots, and serves the folded fleet-wide report on /v1/report plus
// /healthz and /metrics for operations.
//
// Usage:
//
//	fleetd -addr :8717 -shards 8 -queue 1024
//	fleetd -addr :8717 -wal-dir /var/lib/fleetd/wal -wal-sync batch
//
// A 202 means the upload has merged into the node's fleet view. With
// -wal-dir set, ingestion is durable: the upload reached the node's
// write-ahead log, node.wal, first, one group-committed record per upload,
// and survives a crash; on boot the log is replayed (its compacted base
// record, then the uploads behind it) before intake opens, and a torn
// final record — the signature of dying mid-append — is truncated, never
// fatal. The shard count may change across restarts.
//
// On SIGINT/SIGTERM the server stops accepting connections, drains every
// upload it already acknowledged (compacting the log one final time when
// durable), and prints the final fleet report to stdout before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hangdoctor/internal/fleet"
)

func main() {
	addr := flag.String("addr", ":8717", "listen address")
	shards := flag.Int("shards", 8, "number of merge shards, each behind its own lock")
	queue := flag.Int("queue", 1024, "most uploads admitted but not yet merged, or with -wal-dir handed to the WAL committer (429 beyond it)")
	batch := flag.Int("batch", 16, "durable mode: most uploads one WAL group commit covers")
	retryAfter := flag.Duration("retry-after", time.Second, "backoff advertised on 429 responses")
	printFinal := flag.Bool("print-final", true, "print the folded fleet report on shutdown")
	walDir := flag.String("wal-dir", "", "durable mode: directory of the node's WAL, node.wal (empty = memory-only)")
	walSync := flag.String("wal-sync", "batch", "WAL durability barrier: always | batch | off")
	compactEvery := flag.Int("compact-every", 32768, "snapshot-compact the node log after this many uploads")
	dictCache := flag.Int("dict-cache", fleet.DefaultDictDevices, "devices whose binary-upload dictionary state is retained (LRU beyond it)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// net/http/pprof registers on the default mux; the ingest mux is
			// custom, so profiling stays off the public listener.
			log.Printf("fleetd: pprof on %s", *pprofAddr)
			log.Fatal(http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	cfg := fleet.Config{Shards: *shards, QueueDepth: *queue, BatchSize: *batch}
	if *walDir != "" {
		sync, err := fleet.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatalf("fleetd: %v", err)
		}
		cfg.WAL = &fleet.WALConfig{Dir: *walDir, Sync: sync, CompactEvery: *compactEvery}
	}
	agg, err := fleet.Open(cfg)
	if err != nil {
		// Refusing to start beats silently dropping compacted state: the
		// operator decides whether to restore or discard the directory.
		log.Fatalf("fleetd: recovery failed: %v", err)
	}
	if agg.Durable() {
		snap := agg.Metrics().Registry().Snapshot()
		log.Printf("fleetd recovered WAL %s: replayed_records=%d truncated_tails=%d corrupt_records=%d compactions=%d",
			*walDir,
			snap.Value("hangdoctor_fleet_wal_replayed_records_total"),
			snap.Value("hangdoctor_fleet_wal_truncated_tails_total"),
			snap.Value("hangdoctor_fleet_wal_corrupt_records_total"),
			snap.Value("hangdoctor_fleet_wal_compactions_total"))
	}
	fs := fleet.NewServerDict(agg, *dictCache)
	fs.RetryAfter = *retryAfter
	srv := &http.Server{Addr: *addr, Handler: fs.Handler()}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("fleetd listening on %s (%s)", *addr, agg)
		errCh <- srv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %v, draining", s)
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	}

	// Stop intake first, then drain: in-flight requests finish (submits keep
	// working), and only then does the aggregator fold what it acknowledged.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	agg.Close()
	snap := agg.Metrics().Registry().Snapshot()
	rep := agg.Fold()
	log.Printf("drained: accepted=%d rejected=%d invalid=%d merges=%d entries=%d hangs=%d wal_compaction_errors=%d",
		snap.Value("hangdoctor_fleet_uploads_accepted_total"),
		snap.Value("hangdoctor_fleet_uploads_rejected_total"),
		snap.Value("hangdoctor_fleet_uploads_invalid_total"),
		snap.Value("hangdoctor_fleet_merges_total"),
		rep.Len(), rep.TotalHangs(),
		snap.Value("hangdoctor_fleet_wal_compaction_errors_total"))
	if *printFinal {
		fmt.Printf("fleet report: %d root causes, %d diagnosed hangs\n\n%s", rep.Len(), rep.TotalHangs(), rep.Render())
	}
}
