package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hangdoctor/internal/core"
)

// uploads builds n distinct synthetic device reports.
func uploads(n, entries int) []*core.Report {
	out := make([]*core.Report, n)
	for i := range out {
		out[i] = SyntheticUpload(int64(100+i), fmt.Sprintf("device-%03d", i), entries)
	}
	return out
}

func exportBytes(t *testing.T, r *core.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedMergeByteIdentical is the determinism guarantee: for any shard
// count, batch size, and submission order, the folded fleet report exports
// and renders byte-identically to a serial Report.Merge of the same uploads.
func TestShardedMergeByteIdentical(t *testing.T) {
	reps := uploads(24, 60)
	serial := core.NewReport()
	serial.Merge(reps...)
	want := exportBytes(t, serial)

	for _, shards := range []int{1, 2, 4, 7} {
		for _, batch := range []int{1, 3, 16} {
			t.Run(fmt.Sprintf("shards=%d/batch=%d", shards, batch), func(t *testing.T) {
				agg := NewAggregator(Config{Shards: shards, BatchSize: batch, QueueDepth: 4})
				for _, r := range reps {
					if err := agg.SubmitWait(r); err != nil {
						t.Fatal(err)
					}
				}
				agg.Close()
				folded := agg.Fold()
				if got := exportBytes(t, folded); !bytes.Equal(got, want) {
					t.Errorf("sharded fold diverged from serial merge\n--- serial ---\n%s\n--- sharded ---\n%s", want, got)
				}
				if folded.Render() != serial.Render() {
					t.Error("rendered report diverged from serial merge")
				}
			})
		}
	}
}

// TestConcurrentUploadsRace hammers one aggregator from many goroutines —
// mixed Submit/SubmitWait, interleaved snapshots and stats — and checks
// nothing is lost. Run under -race this is the single-writer proof.
func TestConcurrentUploadsRace(t *testing.T) {
	reps := uploads(64, 40)
	serial := core.NewReport()
	serial.Merge(reps...)
	agg := NewAggregator(Config{Shards: 4, QueueDepth: 8, BatchSize: 4})

	var wg sync.WaitGroup
	next := make(chan *core.Report)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				if err := agg.SubmitWait(r); err != nil {
					t.Errorf("submit: %v", err)
				}
			}
		}()
	}
	// Concurrent readers: snapshots and stats must never race the writers.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					agg.Fold()
					agg.ShardStats()
				}
			}
		}()
	}
	for _, r := range reps {
		next <- r
	}
	close(next)
	wg.Wait()
	close(stop)
	readers.Wait()
	agg.Close()

	if got, want := exportBytes(t, agg.Fold()), exportBytes(t, serial); !bytes.Equal(got, want) {
		t.Error("concurrent sharded ingest diverged from serial merge")
	}
	if ms := agg.Metrics().Snapshot(); ms.Accepted != int64(len(reps)) {
		t.Errorf("accepted=%d, want %d", ms.Accepted, len(reps))
	}
}

// wedgeShard blocks a shard goroutine on an unbuffered snapshot reply the
// test controls, making backpressure deterministic: with the shard stuck,
// fragments pile into its channel, then the dispatcher blocks, then the
// bounded intake queue fills.
func wedgeShard(a *Aggregator, i int) (release func()) {
	ch := make(chan shardSnap)
	a.shards[i] <- shardMsg{snap: ch}
	return func() { <-ch }
}

// TestBackpressure: once the intake queue is full, Submit fails fast with
// ErrQueueFull and the HTTP layer turns that into 429 + Retry-After; after
// the jam clears, everything accepted is merged and nothing rejected leaks
// into the fleet view.
func TestBackpressure(t *testing.T) {
	agg := NewAggregator(Config{Shards: 1, QueueDepth: 2, BatchSize: 1, Dispatchers: 1})
	release := wedgeShard(agg, 0)
	srv := NewServer(agg)

	// With its shard wedged the pipeline holds exactly this many one-shard
	// uploads: a full shard channel, one upload in the blocked dispatcher,
	// and a full intake queue. Until it is full, ErrQueueFull only means
	// the dispatcher has not drained the intake yet, so retry.
	capacity := cap(agg.shards[0]) + 1 + cap(agg.intake)
	reps := uploads(capacity+8, 10)
	var rejected int
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range reps[:capacity] {
		for {
			err := agg.Submit(r)
			if err == nil {
				break
			}
			if err != ErrQueueFull {
				t.Fatalf("submit: %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("pipeline refused uploads below its capacity of %d", capacity)
			}
			rejected++
			time.Sleep(time.Millisecond)
		}
	}
	kept := reps[:capacity]
	for _, r := range reps[capacity:] {
		if err := agg.Submit(r); err != ErrQueueFull {
			t.Fatalf("submit to a full pipeline: %v, want ErrQueueFull", err)
		}
		rejected++
	}

	// The HTTP face of the same condition.
	doc := exportBytes(t, reps[0])
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/upload", bytes.NewReader(doc)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("upload against full queue returned %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}

	release()
	agg.Close()
	want := core.NewReport()
	want.Merge(kept...)
	if got := exportBytes(t, agg.Fold()); !bytes.Equal(got, exportBytes(t, want)) {
		t.Error("post-drain fleet view does not equal the accepted uploads")
	}
	if ms := agg.Metrics().Snapshot(); ms.Rejected < int64(rejected)+1 {
		t.Errorf("rejected metric %d below observed rejections %d", ms.Rejected, rejected+1)
	}
}

// TestGracefulShutdownDrains: Close processes every acknowledged upload
// before returning, then refuses new ones (ErrClosed / HTTP 503).
func TestGracefulShutdownDrains(t *testing.T) {
	reps := uploads(32, 30)
	agg := NewAggregator(Config{Shards: 3, QueueDepth: 64})
	for _, r := range reps {
		if err := agg.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	agg.Close()

	serial := core.NewReport()
	serial.Merge(reps...)
	if got, want := exportBytes(t, agg.Fold()), exportBytes(t, serial); !bytes.Equal(got, want) {
		t.Error("drained fleet view incomplete after Close")
	}
	if err := agg.Submit(reps[0]); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	rec := httptest.NewRecorder()
	srv := NewServer(agg)
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/upload", bytes.NewReader(exportBytes(t, reps[0]))))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("upload after Close returned %d, want 503", rec.Code)
	}
	agg.Close() // idempotent
}

// TestServerEndToEnd drives the full HTTP surface over a real listener with
// concurrent clients: uploads, invalid payloads, report in both formats,
// healthz, and metrics.
func TestServerEndToEnd(t *testing.T) {
	agg := NewAggregator(Config{Shards: 4, QueueDepth: 128})
	ts := httptest.NewServer(NewServer(agg).Handler())
	defer ts.Close()

	reps := uploads(20, 25)
	var wg sync.WaitGroup
	for _, r := range reps {
		wg.Add(1)
		go func(doc []byte) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/upload", "application/json", bytes.NewReader(doc))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("upload status %d, want 202", resp.StatusCode)
			}
		}(exportBytes(t, r))
	}
	wg.Wait()

	// Invalid payloads are rejected up front and never reach the shards.
	resp, err := http.Post(ts.URL+"/v1/upload", "application/json", strings.NewReader(`{"version":99}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad version upload status %d, want 400", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/v1/upload"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET upload status %d, want 405", resp.StatusCode)
	}

	// Before shutdown begins, /healthz is 200 "ok".
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hzLive struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hzLive); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hzLive.Status != "ok" {
		t.Errorf("live healthz = %d %q, want 200 ok", resp.StatusCode, hzLive.Status)
	}

	agg.Close() // quiesce so the report is the exact total
	serial := core.NewReport()
	serial.Merge(reps...)

	if resp, err = http.Get(ts.URL + "/v1/report?format=json"); err != nil {
		t.Fatal(err)
	}
	got, err := core.ImportReport(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("report JSON did not round-trip: %v", err)
	}
	if !bytes.Equal(exportBytes(t, got), exportBytes(t, serial)) {
		t.Error("served JSON report differs from serial merge")
	}

	if resp, err = http.Get(ts.URL + "/v1/report"); err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	text.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(text.String(), "Root cause (file:line) @ action") {
		t.Error("text report missing table header")
	}

	// Once Close has begun, /healthz flips to 503 "draining" so load
	// balancers stop routing here.
	if resp, err = http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status   string `json:"status"`
		Shards   int    `json:"shards"`
		Accepted int64  `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status code = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	if hz.Status != "draining" || hz.Shards != 4 || hz.Accepted != int64(len(reps)) {
		t.Errorf("healthz = %+v", hz)
	}

	if resp, err = http.Get(ts.URL + "/metrics"); err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"hangdoctor_fleet_uploads_accepted_total 20",
		"hangdoctor_fleet_uploads_invalid_total 1",
		fmt.Sprintf("hangdoctor_fleet_hangs %d", serial.TotalHangs()),
		fmt.Sprintf("hangdoctor_fleet_entries %d", serial.Len()),
		`hangdoctor_fleet_shard_entries{shard="0"}`,
		`hangdoctor_fleet_shard_entries{shard="3"}`,
		"hangdoctor_fleet_merges_total",
		"hangdoctor_fleet_merge_latency_ns_sum",
	} {
		if !strings.Contains(metrics.String(), series) {
			t.Errorf("metrics exposition missing %q:\n%s", series, metrics.String())
		}
	}
}

// TestHealthCountersSurvive: degraded-mode health uploaded by devices is
// summed exactly once across the sharded path.
func TestHealthCountersSurvive(t *testing.T) {
	agg := NewAggregator(Config{Shards: 4})
	var want core.Health
	for i := 0; i < 10; i++ {
		r := SyntheticUpload(int64(i), fmt.Sprintf("d%d", i), 5)
		r.Health = core.Health{PerfOpenFailures: i, Quarantines: 1, StacksDropped: 2 * i}
		want.Add(r.Health)
		if err := agg.SubmitWait(r); err != nil {
			t.Fatal(err)
		}
	}
	agg.Close()
	if got := agg.Fold().Health; got != want {
		t.Errorf("fleet health = %+v, want %+v", got, want)
	}
}
