package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hangdoctor/internal/core"
	"hangdoctor/internal/simclock"
)

// postBinary uploads one binary document, returning the response.
func postBinary(t *testing.T, ts *httptest.Server, doc []byte) *http.Response {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/upload", core.BinaryContentType, bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestSubmitWireFoldByteIdentical pins the zero-copy ingest path to the
// same determinism bar as everything else: uploads that travel encoder →
// decoder → SubmitWireAcked fold byte-identically to the same reports
// submitted directly, for every shard count.
func TestSubmitWireFoldByteIdentical(t *testing.T) {
	reps := uploads(24, 60)
	serial := core.NewReport()
	serial.Merge(reps...)
	want := exportBytes(t, serial)

	for _, shards := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			agg := NewAggregator(Config{Shards: shards, QueueDepth: 8, BatchSize: 4})
			col := newAckCollector()
			wa := NewWireAck(col.fn)
			for i, r := range reps {
				enc := core.NewBinaryEncoder(fmt.Sprintf("device-%03d", i))
				wr, err := core.NewBinaryDecoder().Decode(enc.Encode(r))
				if err != nil {
					t.Fatalf("decode upload %d: %v", i, err)
				}
				if err := agg.SubmitWireAcked(wr, wa); err != nil {
					t.Fatal(err)
				}
				<-col.fired // the ack is reusable once it fired
			}
			agg.Close()
			if got := exportBytes(t, agg.Fold()); !bytes.Equal(got, want) {
				t.Error("wire-path fold diverged from serial merge")
			}
		})
	}
}

// TestSplitAllocs: splitting a decoded binary upload costs the same few
// allocations whatever its entry count, because its per-shard runs are cut
// from one index array rather than grown one slice per shard, and a few
// bytes per entry, because the runs index the upload's entries instead of
// copying them.
func TestSplitAllocs(t *testing.T) {
	const rounds = 1000
	agg := NewAggregator(Config{Shards: 8})
	defer agg.Close()
	var allocs []float64
	for _, entries := range []int{4, 120} {
		wr, err := core.NewBinaryDecoder().Decode(encodeUpload(t, 3, "device-a", entries))
		if err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, testing.AllocsPerRun(100, func() { agg.split(wr) }))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			agg.split(wr)
		}
		runtime.ReadMemStats(&after)
		if got, limit := (after.TotalAlloc-before.TotalAlloc)/rounds, uint64(16*entries+1024); got > limit {
			t.Errorf("split allocates %d B for %d entries, want at most %d", got, entries, limit)
		}
	}
	if allocs[0] != allocs[1] || allocs[1] > 4 {
		t.Errorf("split allocates %v for 4 and 120 entries, want one count of at most 4", allocs)
	}
}

// TestSplitSkipsEmptyFragments: a shard an upload has nothing for gets an
// empty message, which route skips, and the health section rides shard 0
// alone.
func TestSplitSkipsEmptyFragments(t *testing.T) {
	agg := NewAggregator(Config{Shards: 64})
	defer agg.Close()
	payloads := func(rep *core.Report) (shards []int) {
		for i, m := range agg.split(rep.Wire()) {
			if m.payload() {
				shards = append(shards, i)
			}
		}
		return shards
	}
	one := core.NewReport()
	one.Add("app", "dev", "app/Act", core.Diagnosis{RootCause: "com.example.Only.run", File: "Only.java", Line: 1}, 200*simclock.Millisecond)
	if got := payloads(one); len(got) != 1 {
		t.Errorf("single-entry upload split into %d non-empty fragments, want 1", len(got))
	}
	if got := payloads(core.NewReport()); len(got) != 0 {
		t.Errorf("empty zero-health upload produced non-empty fragments on shards %v", got)
	}
	healthOnly := core.NewReport()
	healthOnly.Health.StacksDropped = 1
	if got := payloads(healthOnly); !slices.Equal(got, []int{0}) {
		t.Errorf("health-only upload has payload on shards %v, want [0]", got)
	}
}

// TestBinaryUploadHTTP drives the negotiated binary path end to end: a
// device streams delta documents through /v1/upload and the folded fleet
// report matches the JSON path byte for byte.
func TestBinaryUploadHTTP(t *testing.T) {
	agg := NewAggregator(Config{Shards: 3, QueueDepth: 16})
	ts := httptest.NewServer(NewServer(agg).Handler())
	defer ts.Close()

	rep1 := SyntheticUpload(11, "device-a", 40)
	rep2 := SyntheticUpload(11, "device-a", 40) // steady state: empty delta
	enc := core.NewBinaryEncoder("device-a")

	doc1 := append([]byte(nil), enc.Encode(rep1)...)
	doc2 := append([]byte(nil), enc.Encode(rep2)...)
	if len(doc2) >= len(doc1)/3 {
		t.Fatalf("second upload should ride the dictionary: %dB vs %dB", len(doc2), len(doc1))
	}
	for i, doc := range [][]byte{doc1, doc2} {
		resp := postBinary(t, ts, doc)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("upload %d: status %d", i, resp.StatusCode)
		}
	}
	agg.Close()

	serial := core.NewReport()
	serial.Merge(rep1, rep2)
	if got, want := exportBytes(t, agg.Fold()), exportBytes(t, serial); !bytes.Equal(got, want) {
		t.Error("binary HTTP ingest diverged from serial merge")
	}
	if n := agg.Metrics().binaryUploads.Value(); n != 2 {
		t.Errorf("binary uploads counter = %d, want 2", n)
	}
}

// TestBinaryUploadDictMismatch409 pins the resync protocol: a delta
// document whose dictionary the server does not hold is bounced with 409
// and a JSON body naming the divergence, and the client recovers by
// resetting its encoder and resending self-contained.
func TestBinaryUploadDictMismatch409(t *testing.T) {
	agg := NewAggregator(Config{Shards: 2, QueueDepth: 16})
	ts := httptest.NewServer(NewServer(agg).Handler())
	defer ts.Close()

	// Warm the encoder without the server seeing the first document — the
	// moral equivalent of a server restart or dictionary eviction.
	enc := core.NewBinaryEncoder("device-b")
	enc.Encode(SyntheticUpload(5, "device-b", 30))

	rep := SyntheticUpload(6, "device-b", 30)
	resp := postBinary(t, ts, append([]byte(nil), enc.Encode(rep)...))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delta against unknown dictionary: status %d, want 409", resp.StatusCode)
	}
	var body struct {
		Error   string `json:"error"`
		Assumed int    `json:"assumed"`
		Have    int    `json:"have"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error != "dictionary_reset" || body.Assumed == 0 || body.Have != 0 {
		t.Fatalf("409 body = %+v", body)
	}

	enc.Reset()
	if resp := postBinary(t, ts, append([]byte(nil), enc.Encode(rep)...)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resync resend: status %d, want 202", resp.StatusCode)
	}
	agg.Close()
	if got, want := exportBytes(t, agg.Fold()), exportBytes(t, rep); !bytes.Equal(got, want) {
		t.Error("post-resync fold diverged (the rejected document must not have merged)")
	}
	if n := agg.Metrics().dictMismatches.Value(); n != 1 {
		t.Errorf("dict mismatches = %d, want 1", n)
	}
}

// TestDictCacheEviction pins the bounded-state guarantee: the cache holds
// at most cap devices, evicting least-recently-seen, and an evicted
// device's next delta is a mismatch (never a wrong decode).
func TestDictCacheEviction(t *testing.T) {
	agg := NewAggregator(Config{Shards: 1})
	defer agg.Close()
	c := newDictCache(2, agg.Metrics().Registry())

	encs := map[string]*core.BinaryEncoder{}
	send := func(device string, seed int64) error {
		enc := encs[device]
		if enc == nil {
			enc = core.NewBinaryEncoder(device)
			encs[device] = enc
		}
		_, err := c.decode(enc.Encode(SyntheticUpload(seed, device, 10)))
		return err
	}
	for _, dev := range []string{"dev-a", "dev-b", "dev-c"} {
		if err := send(dev, 1); err != nil {
			t.Fatalf("%s: %v", dev, err)
		}
	}
	c.mu.Lock()
	got := len(c.byDev)
	c.mu.Unlock()
	if got != 2 {
		t.Fatalf("cache holds %d devices, want 2", got)
	}
	// dev-a was coldest and must have been evicted: its delta now mismatches.
	err := send("dev-a", 2)
	var dm *core.DictMismatchError
	if !errors.As(err, &dm) {
		t.Fatalf("evicted device's delta: got %v, want DictMismatchError", err)
	}
	// dev-c is still resident and keeps streaming deltas.
	if err := send("dev-c", 2); err != nil {
		t.Fatalf("resident device: %v", err)
	}
}

// TestUploadTooLarge413 is the satellite bugfix regression: an oversized
// body answers 413 (too large — retry smaller), not 400 (malformed), on
// both the durable and non-durable paths, for JSON and binary alike.
func TestUploadTooLarge413(t *testing.T) {
	big := exportBytes(t, SyntheticUpload(3, "device-big", 400))
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			cfg := Config{Shards: 2, QueueDepth: 8}
			if durable {
				cfg.WAL = &WALConfig{Dir: t.TempDir()}
			}
			agg, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			srv := NewServer(agg)
			srv.MaxBodyBytes = int64(len(big)) / 2
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			for _, enc := range []struct {
				name, ctype string
				doc         []byte
			}{
				{"json", "application/json", big},
				{"binary", core.BinaryContentType, core.AppendReportBinary(nil, SyntheticUpload(3, "device-big", 400))},
			} {
				if int64(len(enc.doc)) <= srv.MaxBodyBytes {
					continue // binary may compress under the cap; only meaningful when oversized
				}
				resp, err := ts.Client().Post(ts.URL+"/v1/upload", enc.ctype, bytes.NewReader(enc.doc))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusRequestEntityTooLarge {
					t.Errorf("%s oversized upload: status %d, want 413", enc.name, resp.StatusCode)
				}
			}
			// A well-formed document under the cap still lands.
			small := exportBytes(t, SyntheticUpload(4, "device-ok", 5))
			resp, err := ts.Client().Post(ts.URL+"/v1/upload", "application/json", bytes.NewReader(small))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("small upload after oversized: status %d, want 202", resp.StatusCode)
			}
		})
	}
}

// TestReportExportFailure is the satellite bugfix regression for
// /v1/report?format=json: a failing export must produce a clean 500, not
// an error string appended to a partially written 200 body.
func TestReportExportFailure(t *testing.T) {
	agg := NewAggregator(Config{Shards: 1})
	defer agg.Close()
	if err := agg.SubmitWait(SyntheticUpload(9, "device-x", 10)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(agg)
	srv.exportReport = func(*core.Report, *bytes.Buffer) error {
		return errors.New("simulated downstream export failure")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/report?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if strings.Contains(body.String(), "{") {
		t.Fatalf("500 body contains partial JSON: %q", body.String())
	}
}

// TestDurableDedupCanonicalContent is the satellite bugfix regression for
// upload identity: the dedup key is the report's canonical content, so a
// client that re-serializes the same report — different whitespace,
// different encoding entirely — still deduplicates instead of
// double-counting.
func TestDurableDedupCanonicalContent(t *testing.T) {
	agg, err := Open(Config{Shards: 2, QueueDepth: 8, WAL: &WALConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(agg).Handler())
	defer ts.Close()

	rep := SyntheticUpload(21, "device-dup", 30)
	pretty := exportBytes(t, rep)
	var compact bytes.Buffer
	if err := json.Compact(&compact, pretty); err != nil {
		t.Fatal(err)
	}
	binary := core.AppendReportBinary(nil, rep)

	for i, doc := range []struct {
		ctype string
		body  []byte
	}{
		{"application/json", pretty},
		{"application/json", compact.Bytes()}, // re-serialized duplicate
		{core.BinaryContentType, binary},      // re-encoded duplicate
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/upload", doc.ctype, bytes.NewReader(doc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: status %d, want 202 (duplicates ack success)", i, resp.StatusCode)
		}
	}
	agg.Close()
	if got, want := exportBytes(t, agg.Fold()), exportBytes(t, rep); !bytes.Equal(got, want) {
		t.Error("re-serialized duplicates were double-counted")
	}
}

// TestSnapshotEndpointCanonical pins /v1/snapshot: it serves the fold in
// canonical binary form, so identical state yields identical bytes and a
// decode round-trips to the same report the JSON endpoint describes.
func TestSnapshotEndpointCanonical(t *testing.T) {
	agg := NewAggregator(Config{Shards: 2, QueueDepth: 8})
	reps := uploads(6, 30)
	for _, r := range reps {
		if err := agg.SubmitWait(core.FoldReports(r)); err != nil {
			t.Fatal(err)
		}
	}
	agg.Close()
	ts := httptest.NewServer(NewServer(agg).Handler())
	defer ts.Close()

	get := func() []byte {
		resp, err := ts.Client().Get(ts.URL + "/v1/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != core.BinaryContentType {
			t.Fatalf("content type %q", ct)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.Bytes()
	}
	doc1, doc2 := get(), get()
	if !bytes.Equal(doc1, doc2) {
		t.Fatal("snapshot is not byte-stable across reads of identical state")
	}
	wr, err := core.NewBinaryDecoder().Decode(doc1)
	if err != nil {
		t.Fatal(err)
	}
	serial := core.NewReport()
	serial.Merge(reps...)
	if got, want := exportBytes(t, wr.Report()), exportBytes(t, serial); !bytes.Equal(got, want) {
		t.Error("snapshot decode diverged from the fold")
	}
}
