package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/simclock"
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
// SubmitWait from eight writers, interleaved snapshots and stats — and
// checks nothing is lost. Run under -race this is the single-writer proof.
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
					agg.scrape()
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
	if n := agg.Metrics().accepted.Value(); n != int64(len(reps)) {
		t.Errorf("accepted=%d, want %d", n, len(reps))
	}
}

// wedgeShard blocks a shard goroutine on an unbuffered snapshot reply the
// test controls, making backpressure deterministic: with the shard stuck,
// fragments pile into its channel, then admitted submitters block handing
// off theirs until every admission slot is taken. release is idempotent,
// so a test can defer it ahead of Close and still fail cleanly with the
// shard wedged.
func wedgeShard(a *Aggregator, i int) (release func()) {
	ch := make(chan shardSnap)
	a.shards[i] <- shardMsg{snap: ch}
	var once sync.Once
	return func() { once.Do(func() { <-ch }) }
}

// fillWedged parks exactly as many blocking submitters on a one-shard
// aggregator whose shard is wedged as its pipeline holds — a full shard
// channel, plus one submitter blocked in hand-off per admission slot — and
// returns their uploads once the pipeline is full. Every later
// non-blocking submit fails with ErrQueueFull until the shard is released.
// The parked submitters finish after the release; the test's cleanup
// waits for them, so a test must release the shard before it returns.
func fillWedged(t *testing.T, a *Aggregator) []*core.Report {
	t.Helper()
	reps := uploads(cap(a.shards[0])+cap(a.slots), 10)
	var parked sync.WaitGroup
	t.Cleanup(parked.Wait)
	for _, r := range reps {
		parked.Add(1)
		go func() {
			defer parked.Done()
			if err := a.SubmitWait(r); err != nil {
				t.Errorf("fill: %v", err)
			}
		}()
	}
	for a.QueueDepth() < cap(a.slots) || len(a.shards[0]) < cap(a.shards[0]) {
		time.Sleep(time.Millisecond) // no event marks a submitter as parked
	}
	return reps
}

// TestBackpressure: once the pipeline is full, SubmitDurable fails fast
// with ErrQueueFull and the HTTP layer turns that into 429 + Retry-After;
// after the jam clears, everything accepted is merged and nothing rejected
// leaks into the fleet view.
func TestBackpressure(t *testing.T) {
	agg := NewAggregator(Config{Shards: 1, QueueDepth: 2, BatchSize: 1})
	release := wedgeShard(agg, 0)
	defer release()
	srv := NewServer(agg)
	kept := fillWedged(t, agg)
	var rejected int64
	for i := 0; i < 8; i++ {
		if err := agg.SubmitDurable(SyntheticUpload(int64(900+i), "device-late", 10), UploadID{}); err != ErrQueueFull {
			t.Fatalf("submit to a full pipeline: %v, want ErrQueueFull", err)
		}
		rejected++
	}

	// The HTTP face of the same condition.
	doc := exportBytes(t, kept[0])
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
	if n := agg.Metrics().rejected.Value(); n != rejected+1 {
		t.Errorf("rejected metric %d, want the %d observed rejections", n, rejected+1)
	}
}

// TestSubmitContracts pins every write entry point in one table. After
// Close each refuses with ErrClosed (HTTP 503) and counts one rejection.
// On a full pipeline the device-facing calls — SubmitDurable and both
// upload handlers — fail fast with ErrQueueFull (HTTP 429 + Retry-After),
// while the bulk and simulator calls wait for queue space and return only
// after the jam clears. A SubmitWireAcked rejected synchronously never
// fires its callback.
func TestSubmitContracts(t *testing.T) {
	rep := SyntheticUpload(7, "device-late", 10)
	jsonDoc, binDoc := exportBytes(t, rep), core.AppendReportBinary(nil, rep)
	post := func(ctype string, doc []byte) func(*Aggregator, *core.WireReport) error {
		return func(a *Aggregator, _ *core.WireReport) error {
			return postUpload(NewServer(a).Handler(), ctype, doc)
		}
	}
	var fired atomic.Int64
	wa := NewWireAck(func(error) { fired.Add(1) })
	cases := []struct {
		name   string
		blocks bool
		submit func(*Aggregator, *core.WireReport) error
	}{
		{"SubmitDurable", false, func(a *Aggregator, _ *core.WireReport) error {
			return a.SubmitDurable(core.FoldReports(rep), UploadID{})
		}},
		{"SubmitWait", true, func(a *Aggregator, _ *core.WireReport) error { return a.SubmitWait(core.FoldReports(rep)) }},
		{"SubmitWireAcked", true, func(a *Aggregator, wr *core.WireReport) error { return a.SubmitWireAcked(wr, wa) }},
		{"POST json", false, post("application/json", jsonDoc)},
		{"POST binary", false, post(core.BinaryContentType, binDoc)},
	}
	// wire decodes a fresh binary upload for one submission to own.
	wire := func(t *testing.T) *core.WireReport {
		wr, err := core.NewBinaryDecoder().Decode(binDoc)
		if err != nil {
			t.Fatal(err)
		}
		return wr
	}
	for _, c := range cases {
		t.Run(c.name+"/closed", func(t *testing.T) {
			agg := NewAggregator(Config{Shards: 2})
			agg.Close()
			fired.Store(0)
			if err := c.submit(agg, wire(t)); !errors.Is(err, ErrClosed) {
				t.Fatalf("after Close: %v, want ErrClosed", err)
			}
			if got := agg.Metrics().rejected.Value(); got != 1 {
				t.Errorf("rejected = %d, want 1", got)
			}
			if n := fired.Load(); n != 0 {
				t.Errorf("callback fired %d times after a synchronous rejection", n)
			}
		})
		t.Run(c.name+"/full", func(t *testing.T) {
			agg := NewAggregator(Config{Shards: 1, QueueDepth: 2, BatchSize: 1})
			defer agg.Close()
			release := wedgeShard(agg, 0)
			defer release()
			fillWedged(t, agg)
			wr := wire(t)
			done := make(chan error, 1)
			go func() { done <- c.submit(agg, wr) }()
			if !c.blocks {
				if err := <-done; !errors.Is(err, ErrQueueFull) {
					t.Errorf("full pipeline: %v, want ErrQueueFull", err)
				}
				release()
				return
			}
			select {
			case err := <-done:
				t.Fatalf("returned %v while the pipeline was full", err)
			case <-time.After(50 * time.Millisecond):
			}
			release()
			if err := <-done; err != nil {
				t.Fatalf("after release: %v", err)
			}
		})
	}
}

// postUpload POSTs one document to h's /v1/upload and maps the answer back
// onto the submit errors: 202 is nil, 429 with Retry-After is
// ErrQueueFull, and 503 is ErrClosed.
func postUpload(h http.Handler, ctype string, doc []byte) error {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/upload", bytes.NewReader(doc))
	req.Header.Set("Content-Type", ctype)
	h.ServeHTTP(rec, req)
	switch rec.Code {
	case http.StatusAccepted:
		return nil
	case http.StatusTooManyRequests:
		if rec.Header().Get("Retry-After") == "" {
			return errors.New("429 without Retry-After")
		}
		return ErrQueueFull
	case http.StatusServiceUnavailable:
		return ErrClosed
	}
	return fmt.Errorf("status %d", rec.Code)
}

// TestSubmitKeepsNoReference: a report upload is handed on as a copy, so
// its caller may write the report as soon as the submit returns — before
// the shards merge it, on a memory-only node and a durable one. Under
// -race a shared device set or entry is a reported data race.
func TestSubmitKeepsNoReference(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			cfg := Config{Shards: 3}
			if durable {
				cfg = durableCfg(t.TempDir(), 3)
			}
			agg := mustOpen(t, cfg)
			rep := SyntheticUpload(21, "device-keep", 30)
			rep.Health.StacksDropped = 2
			want := exportBytes(t, rep)
			if err := agg.SubmitWait(rep); err != nil {
				t.Fatal(err)
			}
			for _, e := range rep.Entries() {
				rep.Add(e.App, "device-later", e.ActionUID,
					core.Diagnosis{RootCause: e.RootCause, File: e.File, Line: e.Line}, simclock.Second)
			}
			rep.Health.StacksDropped++
			agg.Close()
			if got := exportBytes(t, agg.Fold()); !bytes.Equal(got, want) {
				t.Error("a write to the report after its submit reached the fleet view")
			}
		})
	}
}

// TestUploadAnswersAfterMerge: on a memory-only node a 202 means merged,
// in either format. With the node's one shard wedged an upload is queued
// but cannot merge, so the POST does not answer until the shard is
// released — and once it answers, the fold holds the upload.
func TestUploadAnswersAfterMerge(t *testing.T) {
	rep := SyntheticUpload(5, "device-a", 8)
	for _, f := range []struct {
		ctype string
		doc   []byte
	}{
		{"application/json", exportBytes(t, rep)},
		{core.BinaryContentType, core.AppendReportBinary(nil, rep)},
	} {
		t.Run(f.ctype, func(t *testing.T) {
			agg := NewAggregator(Config{Shards: 1})
			defer agg.Close()
			srv := NewServer(agg)
			release := wedgeShard(agg, 0)
			defer release()
			answered := make(chan int, 1)
			go func() {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/v1/upload", bytes.NewReader(f.doc))
				req.Header.Set("Content-Type", f.ctype)
				srv.Handler().ServeHTTP(rec, req)
				answered <- rec.Code
			}()
			select {
			case code := <-answered:
				t.Fatalf("upload answered %d before its shard could merge it", code)
			case <-time.After(50 * time.Millisecond):
			}
			release()
			if code := <-answered; code != http.StatusAccepted {
				t.Fatalf("upload answered %d, want 202", code)
			}
			if got, want := exportBytes(t, agg.Fold()), exportBytes(t, rep); !bytes.Equal(got, want) {
				t.Error("the fold after the 202 does not hold the upload")
			}
		})
	}
}

// TestGracefulShutdownDrains: Close processes every acknowledged upload
// before returning, then refuses new ones (ErrClosed / HTTP 503).
func TestGracefulShutdownDrains(t *testing.T) {
	reps := uploads(32, 30)
	agg := NewAggregator(Config{Shards: 3, QueueDepth: 64})
	for _, r := range reps {
		if err := agg.SubmitWait(r); err != nil {
			t.Fatal(err)
		}
	}
	agg.Close()

	serial := core.NewReport()
	serial.Merge(reps...)
	if got, want := exportBytes(t, agg.Fold()), exportBytes(t, serial); !bytes.Equal(got, want) {
		t.Error("drained fleet view incomplete after Close")
	}
	if err := agg.SubmitDurable(reps[0], UploadID{}); err != ErrClosed {
		t.Errorf("SubmitDurable after Close = %v, want ErrClosed", err)
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
// summed exactly once across the sharded path, into the fold and into
// every hangdoctor_fleet_health_<stem> gauge a scrape sets.
func TestHealthCountersSurvive(t *testing.T) {
	agg := NewAggregator(Config{Shards: 4})
	var want core.Health
	for i := 0; i < 10; i++ {
		r := SyntheticUpload(int64(i), fmt.Sprintf("d%d", i), 5)
		hv := reflect.ValueOf(&r.Health).Elem()
		for f := 0; f < hv.NumField(); f++ {
			hv.Field(f).SetInt(int64(1 + f + 100*i))
		}
		want.Add(r.Health)
		if err := agg.SubmitWait(r); err != nil {
			t.Fatal(err)
		}
	}
	agg.Close()
	if got := agg.Fold().Health; got != want {
		t.Errorf("fleet health = %+v, want %+v", got, want)
	}
	agg.scrape()
	snap := agg.Metrics().Registry().Snapshot()
	n := 0
	want.EachCounter(func(stem string, v int) {
		n++
		if got := snap.Value("hangdoctor_fleet_health_" + stem); got != int64(v) {
			t.Errorf("hangdoctor_fleet_health_%s = %d, want %d", stem, got, v)
		}
	})
	if n != reflect.TypeOf(want).NumField() {
		t.Errorf("EachCounter visited %d counters, want every Health field", n)
	}
}
