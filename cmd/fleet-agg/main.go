// Command fleet-agg is the regional tier above fleetd: it polls N fleetd
// nodes' /v1/snapshot (canonical binary fold) and /metrics/snapshot (obs
// registry) endpoints and serves the folded regional view. Because node
// snapshots fold with the same commutative merge that folds a node's
// shards, the regional report is byte-identical to a single fleetd having
// ingested every upload itself — which is how a deployment scales ingest
// horizontally without changing what the report says.
//
// Polling is incremental: fleet-agg remembers each node's version vector
// and asks /v1/snapshot?since=<vector>, so steady-state rounds move only
// the entries that changed (plus health) and fold them into a
// materialized regional report. A node restart resyncs that node in full
// automatically. Poll rounds are jittered so a fleet of aggregators
// doesn't thunder in phase, and each node fetch is bounded by
// -node-timeout so one slow node can't stall the round — failed nodes
// keep their last mirrored state and the aggregator reports itself
// degraded instead of going dark.
//
// Usage:
//
//	fleet-agg -nodes http://10.0.0.1:8717,http://10.0.0.2:8717 -addr :8718
//
// Endpoints:
//
//	GET /v1/report    — the folded regional report (text, or ?format=json)
//	GET /v1/snapshot  — the folded regional report in canonical binary form
//	                    (fleet-agg tiers compose: a super-region can fold
//	                    regions the same way)
//	GET /metrics      — the merged node registries, Prometheus text
//	GET /healthz      — last poll status per node
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fleet"
	"hangdoctor/internal/obs"
)

// state is the last poll's outcome, swapped atomically under the mutex so
// readers never see a half-updated region.
type state struct {
	mu      sync.RWMutex
	rep     *core.Report
	metrics obs.Snapshot
	polled  time.Time
	err     error
	failed  int // nodes that failed the last round
	deltas  int // nodes that answered the last round with a delta
}

// set records a poll round: the report always advances (failed nodes
// contribute their last mirrored state), metrics only when the metrics
// fetch succeeded.
func (s *state) set(res fleet.PollResult, m obs.Snapshot, merr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rep, s.polled = res.Report, time.Now()
	s.failed, s.deltas = res.Failed, res.Deltas
	s.err = merr
	if s.err == nil {
		s.metrics = m
		for _, err := range res.Errs {
			if err != nil {
				s.err = err
				break
			}
		}
	}
}

func (s *state) get() (*core.Report, obs.Snapshot, time.Time, error, int, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rep := s.rep
	if rep == nil {
		rep = core.NewReport()
	}
	return rep, s.metrics, s.polled, s.err, s.failed, s.deltas
}

func main() {
	addr := flag.String("addr", ":8718", "listen address")
	nodes := flag.String("nodes", "", "comma-separated fleetd base URLs (required)")
	interval := flag.Duration("interval", 10*time.Second, "node poll interval")
	jitter := flag.Duration("jitter", -1, "max random delay added per poll round (-1 = interval/5, 0 disables)")
	timeout := flag.Duration("timeout", 30*time.Second, "whole-round HTTP timeout")
	nodeTimeout := flag.Duration("node-timeout", 10*time.Second, "per-node fetch timeout within a round (0 = round timeout only)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	var urls []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			urls = append(urls, strings.TrimRight(n, "/"))
		}
	}
	if len(urls) == 0 {
		log.Fatal("fleet-agg: -nodes is required (comma-separated fleetd base URLs)")
	}
	if *jitter < 0 {
		*jitter = *interval / 5
	}
	reg := fleet.NewRegional(urls, &http.Client{Timeout: *timeout})
	reg.NodeTimeout = *nodeTimeout
	st := &state{}

	if *pprofAddr != "" {
		go func() {
			// net/http/pprof registers on the default mux; the API mux below
			// is custom, so profiling stays off the public listener.
			log.Printf("fleet-agg: pprof on %s", *pprofAddr)
			log.Fatal(http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	poll := func() {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		res := reg.PollDelta(ctx)
		m, merr := reg.Metrics(ctx)
		st.set(res, m, merr)
		for i, err := range res.Errs {
			if err != nil {
				log.Printf("fleet-agg: node %s: %v", urls[i], err)
			}
		}
		if merr != nil {
			log.Printf("fleet-agg: metrics poll failed: %v", merr)
		}
	}
	poll()
	go func() {
		for {
			d := *interval
			if *jitter > 0 {
				d += time.Duration(rand.Int63n(int64(*jitter)))
			}
			time.Sleep(d)
			poll()
		}
	}()

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/report", func(w http.ResponseWriter, r *http.Request) {
		rep, _, _, _, _, _ := st.get()
		if r.URL.Query().Get("format") == "json" {
			var buf bytes.Buffer
			if err := rep.Export(&buf); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(buf.Bytes())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "regional report (%d nodes): %d root causes, %d diagnosed hangs\n\n",
			len(urls), rep.Len(), rep.TotalHangs())
		fmt.Fprint(w, rep.Render())
	})
	mux.HandleFunc("/v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		rep, _, _, _, _, _ := st.get()
		doc := core.AppendReportBinary(nil, rep)
		w.Header().Set("Content-Type", core.BinaryContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
		w.Write(doc)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		_, m, _, _, _, _ := st.get()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WriteTo(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _, polled, err, failed, deltas := st.get()
		status, code := "ok", http.StatusOK
		if err != nil || failed > 0 {
			// Degraded, not dead: the report endpoints keep serving the last
			// mirrored state for every node that still answers.
			status, code = "degraded", http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		resp := map[string]any{
			"status": status, "nodes": len(urls), "failed_nodes": failed,
			"delta_nodes": deltas, "last_poll": polled.Format(time.RFC3339),
		}
		if err != nil {
			resp["error"] = err.Error()
		}
		json.NewEncoder(w).Encode(resp)
	})

	log.Printf("fleet-agg listening on %s, folding %d nodes every %v", *addr, len(urls), *interval)
	log.Fatal(http.ListenAndServe(*addr, mux))
}
