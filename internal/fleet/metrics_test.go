package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hangdoctor/internal/core"
	"hangdoctor/internal/golden"
	"hangdoctor/internal/obs"
)

// TestNodeMetricsSchemaGolden pins a durable node's exposition schema
// after one upload and a scrape: every family's name, kind, help and label
// names, sorted by name. A renamed, retyped, re-helped or added family
// changes the digest.
func TestNodeMetricsSchemaGolden(t *testing.T) {
	agg, err := Open(Config{Shards: 2, WAL: &WALConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	h := NewServer(agg).Handler()
	if err := postUpload(h, "application/json", exportBytes(t, SyntheticUpload(1, "dev", 4))); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("scrape: status %d", rec.Code)
	}
	var b bytes.Buffer
	for _, f := range agg.Metrics().Registry().Snapshot().Families {
		fmt.Fprintf(&b, "%s %s %q %q\n", f.Name, f.Kind, f.Help, f.LabelNames)
	}
	golden.Check(t, "node-metrics-schema.txt", b.Bytes())
}

// TestObsViewMatchesSnapshot: the registry is the node's only set of
// books, and after a workload it agrees with an independent tally of
// submit results. Accepted, rejected and invalid uploads match the
// submitters' outcomes; merges and merged fragments both match the
// non-empty fragments of the accepted uploads, since each merge call
// folds one, and the merge-latency and lock-wait histograms each hold one
// observation per merge call.
func TestObsViewMatchesSnapshot(t *testing.T) {
	const shards = 4
	agg := NewAggregator(Config{Shards: shards, QueueDepth: 8})
	// Sixteen fail-fast submitters against an eight-deep queue: some
	// uploads are accepted, some may be turned away.
	var accepted, rejected, fragments atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < 200; i += 16 {
				rep := SyntheticUpload(int64(i), fmt.Sprintf("dev-%d", i%7), 4)
				wr, frags := rep.Wire(), 0
				for s, run := range agg.split(wr) {
					if len(run) > 0 || s == 0 && !wr.Health.Zero() {
						frags++
					}
				}
				switch err := agg.SubmitDurable(rep, UploadID{}); err {
				case nil:
					accepted.Add(1)
					fragments.Add(int64(frags))
				case ErrQueueFull:
					rejected.Add(1)
				default:
					t.Errorf("submit: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	agg.Metrics().NoteInvalid()
	agg.Close()

	snap := agg.Metrics().Registry().Snapshot()
	for name, want := range map[string]int64{
		"hangdoctor_fleet_uploads_accepted_total": accepted.Load(),
		"hangdoctor_fleet_uploads_rejected_total": rejected.Load(),
		"hangdoctor_fleet_uploads_invalid_total":  1,
		"hangdoctor_fleet_merged_fragments_total": fragments.Load(),
		"hangdoctor_fleet_queue_capacity":         8,
	} {
		if got := snap.Value(name); got != want {
			t.Errorf("obs %s = %d, want %d", name, got, want)
		}
	}
	merges := snap.Value("hangdoctor_fleet_merges_total")
	if merges != fragments.Load() {
		t.Errorf("merges_total = %d, want %d (one per fragment)", merges, fragments.Load())
	}
	for _, name := range []string{"hangdoctor_fleet_merge_latency_ns", "hangdoctor_fleet_merge_lock_wait_ns"} {
		if h := snap.Histogram(name); int64(h.Count) != merges {
			t.Errorf("%s count = %d, want merges_total %d", name, h.Count, merges)
		}
	}
}

// TestMetricsSnapshotEndpoint reads a node's accounting from
// /metrics/snapshot, the JSON form of its registry: the accepted count,
// one shard_entries series per shard, and the fleet-wide entry and hang
// gauges a scrape projects from the shards.
func TestMetricsSnapshotEndpoint(t *testing.T) {
	agg := NewAggregator(Config{Shards: 2})
	defer agg.Close()
	serial := core.NewReport()
	for i := 0; i < 6; i++ {
		rep := SyntheticUpload(int64(i), "dev", 3)
		serial.Merge(core.FoldReports(rep))
		if err := agg.SubmitDurable(rep, UploadID{}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewServer(agg).Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Value("hangdoctor_fleet_uploads_accepted_total"); got != 6 {
		t.Errorf("accepted = %d, want 6", got)
	}
	if f := snap.Family("hangdoctor_fleet_shard_entries"); f == nil || len(f.Series) != 2 {
		t.Fatalf("shard_entries family = %+v, want two series", f)
	}
	if got, want := snap.Value("hangdoctor_fleet_entries"), int64(serial.Len()); got != want {
		t.Errorf("entries = %d, want %d", got, want)
	}
	if got, want := snap.Value("hangdoctor_fleet_hangs"), int64(serial.TotalHangs()); got != want {
		t.Errorf("hangs = %d, want %d", got, want)
	}
	if got := snap.Value("hangdoctor_fleet_queue_capacity"); got == 0 {
		t.Error("queue capacity missing from the snapshot")
	}
}
