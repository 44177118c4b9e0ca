package fleet

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMergeTripleNeverTears is the satellite consistency guarantee: the
// merges/fragments/nanoseconds triple moves under one mutex, so no
// snapshot may ever observe a merge whose fragment count landed but
// whose latency has not. Every noteMerge here contributes exactly one
// fragment and exactly 1000 ns, so any torn read shows up as a snapshot
// where the three values disagree.
func TestMergeTripleNeverTears(t *testing.T) {
	m := newMetrics(64)
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.noteMerge(1, time.Microsecond)
			}
		}()
	}
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ms := m.Snapshot()
			if ms.MergedFragments != ms.Merges {
				t.Errorf("torn snapshot: %d merges but %d fragments", ms.Merges, ms.MergedFragments)
				return
			}
			if ms.MergeNs != ms.Merges*1000 {
				t.Errorf("torn snapshot: %d merges but %d ns", ms.Merges, ms.MergeNs)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	readerWG.Wait()

	ms := m.Snapshot()
	if want := int64(workers * perWorker); ms.Merges != want {
		t.Fatalf("merges = %d, want %d", ms.Merges, want)
	}
	// The histogram saw the same stream: its count and sum mirror the triple.
	h := m.reg.Snapshot().Histogram("hangdoctor_fleet_merge_latency_ns")
	if h.Count != uint64(ms.Merges) || h.Sum != float64(ms.MergeNs) {
		t.Fatalf("merge histogram (count=%d sum=%g) disagrees with triple (merges=%d ns=%d)",
			h.Count, h.Sum, ms.Merges, ms.MergeNs)
	}
}

// TestObsViewMatchesSnapshot is the differential test for the refactor:
// after a workload, the obs exposition, the MetricsSnapshot struct, and
// an independent tally of submit results must all report the same
// totals — the registry is a view over the same accounting, not a second
// set of books that can drift.
func TestObsViewMatchesSnapshot(t *testing.T) {
	agg := NewAggregator(Config{Shards: 4, QueueDepth: 8})
	// Sixteen fail-fast submitters against an eight-deep queue: some
	// uploads are accepted, some may be turned away.
	var accepted, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < 200; i += 16 {
				rep := SyntheticUpload(int64(i), fmt.Sprintf("dev-%d", i%7), 4)
				switch err := agg.SubmitDurable(rep, UploadID{}); err {
				case nil:
					accepted.Add(1)
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

	ms := agg.Metrics().Snapshot()
	if ms.Accepted != accepted.Load() || ms.Rejected != rejected.Load() || ms.Invalid != 1 {
		t.Fatalf("snapshot (acc=%d rej=%d inv=%d) != tally (acc=%d rej=%d inv=1)",
			ms.Accepted, ms.Rejected, ms.Invalid, accepted.Load(), rejected.Load())
	}
	obsSnap := agg.Metrics().Registry().Snapshot()
	for name, want := range map[string]int64{
		"hangdoctor_fleet_uploads_accepted_total": ms.Accepted,
		"hangdoctor_fleet_uploads_rejected_total": ms.Rejected,
		"hangdoctor_fleet_uploads_invalid_total":  ms.Invalid,
		"hangdoctor_fleet_merges_total":           ms.Merges,
		"hangdoctor_fleet_merged_fragments_total": ms.MergedFragments,
		"hangdoctor_fleet_queue_capacity":         int64(ms.QueueCapacity),
	} {
		if got := obsSnap.Value(name); got != want {
			t.Errorf("obs %s = %d, want %d", name, got, want)
		}
	}
	if h := obsSnap.Histogram("hangdoctor_fleet_merge_latency_ns"); int64(h.Sum) != ms.MergeNs {
		t.Errorf("merge latency histogram sum = %g, want %d", h.Sum, ms.MergeNs)
	}
}

// TestMetricsJSONEndpoint checks the JSON twin of /metrics: one
// AggregatorSnapshot document with the merge triple, queue state, and
// per-shard stats.
func TestMetricsJSONEndpoint(t *testing.T) {
	agg := NewAggregator(Config{Shards: 2})
	for i := 0; i < 6; i++ {
		if err := agg.SubmitWait(SyntheticUpload(int64(i), "dev", 3)); err != nil {
			t.Fatal(err)
		}
	}
	defer agg.Close()
	ts := httptest.NewServer(NewServer(agg).Handler())
	defer ts.Close()

	// Settle: wait until the counters say everything merged.
	deadline := time.Now().Add(5 * time.Second)
	for agg.Metrics().Snapshot().MergedFragments < 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var snap AggregatorSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Accepted != 6 {
		t.Errorf("accepted = %d, want 6", snap.Accepted)
	}
	if len(snap.Shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(snap.Shards))
	}
	if snap.Entries() == 0 || snap.Hangs() == 0 {
		t.Errorf("empty shard view: entries=%d hangs=%d", snap.Entries(), snap.Hangs())
	}
	if snap.QueueCapacity == 0 {
		t.Error("queue capacity missing from JSON snapshot")
	}
}
