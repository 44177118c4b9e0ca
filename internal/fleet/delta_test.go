package fleet

// delta_test.go covers the incremental read path end to end: version
// vectors on the wire, the /v1/snapshot?since= delta protocol, the cached
// fold's byte-identity to a serial fold of the submitted uploads under
// racing ingest, and the regional tier's delta polling — including the
// self-healing full resync after a simulated node restart. Every
// reference is core.FoldReports over the uploads a test submitted, never
// a fold of the nodes' own state.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"hangdoctor/internal/core"
)

// mergeAll submits reps and returns only after every one has merged
// (SubmitDurable without a WAL acks post-merge), so the caller's next
// fold is a deterministic quiescent point. It returns reps, so callers
// can collect what they submitted for the reference fold.
func mergeAll(t *testing.T, agg *Aggregator, reps ...*core.Report) []*core.Report {
	t.Helper()
	for _, rep := range reps {
		id, err := ReportUploadID(rep)
		if err != nil {
			t.Fatal(err)
		}
		for {
			err := agg.SubmitDurable(rep, id)
			if err == ErrQueueFull {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	return reps
}

func TestVersionVectorRoundTrip(t *testing.T) {
	vecs := []VersionVector{
		{},
		{Epoch: 7},
		{Epoch: 42, Shards: []uint64{0, 3, 9000000000}},
	}
	for _, v := range vecs {
		got, err := ParseVersionVector(v.String())
		if err != nil {
			t.Fatalf("round trip %q: %v", v.String(), err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %q: got %q", v.String(), got.String())
		}
	}
	if !(VersionVector{}).Zero() || (VersionVector{Epoch: 1}).Zero() {
		t.Error("Zero() misclassifies")
	}
	if (VersionVector{Epoch: 1, Shards: []uint64{2}}).Equal(VersionVector{Epoch: 1, Shards: []uint64{3}}) {
		t.Error("Equal ignores shard versions")
	}
	for _, bad := range []string{"", "7", "x:1.2", "7:1.x", "7:1..2"} {
		if _, err := ParseVersionVector(bad); err == nil {
			t.Errorf("ParseVersionVector(%q) accepted garbage", bad)
		}
	}
}

// getSnapshot GETs /v1/snapshot (optionally with ?since=) and returns the
// decoded body plus the response's vector and kind headers.
func getSnapshot(t *testing.T, base, since string) (*core.WireReport, VersionVector, string, int) {
	t.Helper()
	u := base + "/v1/snapshot"
	if since != "" {
		u += "?since=" + url.QueryEscape(since)
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, VersionVector{}, "", resp.StatusCode
	}
	wr, err := core.NewBinaryDecoder().Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := ParseVersionVector(resp.Header.Get(VectorHeader))
	if err != nil {
		t.Fatalf("bad %s header: %v", VectorHeader, err)
	}
	return wr, vec, resp.Header.Get(SnapshotKindHeader), resp.StatusCode
}

// TestSnapshotDeltaHTTP drives the delta protocol over real HTTP: a full
// snapshot carries the vector, echoing it back yields an empty delta, new
// uploads yield a delta that converges a client mirror to the fold of
// every upload, a garbled vector is a 400, and an alien epoch resyncs in
// full.
func TestSnapshotDeltaHTTP(t *testing.T) {
	agg, node := newNode(t, 3)
	sent := mergeAll(t, agg, uploads(10, 30)...)

	wr, vec, kind, _ := getSnapshot(t, node.URL, "")
	if kind != SnapshotFull {
		t.Fatalf("initial snapshot kind = %q, want %q", kind, SnapshotFull)
	}
	if len(vec.Shards) != 3 || vec.Epoch == 0 {
		t.Fatalf("vector %q does not cover 3 shards with a nonzero epoch", vec.String())
	}
	mirror := core.NewReport()
	mirror.ApplyWireFull(wr)
	if !bytes.Equal(exportBytes(t, mirror), exportBytes(t, core.FoldReports(sent...))) {
		t.Fatal("full snapshot does not match the fold of the uploads")
	}

	// Nothing changed: the delta is entry-less and the vector holds still.
	wr, vec2, kind, _ := getSnapshot(t, node.URL, vec.String())
	if kind != SnapshotDelta || len(wr.Entries) != 0 || !vec2.Equal(vec) {
		t.Fatalf("quiescent delta: kind=%q entries=%d vector=%q", kind, len(wr.Entries), vec2.String())
	}

	sent = append(sent, mergeAll(t, agg, uploads(6, 20)...)...)
	wr, vec3, kind, _ := getSnapshot(t, node.URL, vec.String())
	if kind != SnapshotDelta || len(wr.Entries) == 0 {
		t.Fatalf("post-ingest delta: kind=%q entries=%d", kind, len(wr.Entries))
	}
	mirror.ApplyWireDelta(wr)
	if !bytes.Equal(exportBytes(t, mirror), exportBytes(t, core.FoldReports(sent...))) {
		t.Fatal("mirror after delta apply diverged from the fold of the uploads")
	}
	// And the new vector is again a fixed point.
	wr, _, kind, _ = getSnapshot(t, node.URL, vec3.String())
	if kind != SnapshotDelta || len(wr.Entries) != 0 {
		t.Fatalf("vector %q is not a fixed point: kind=%q entries=%d", vec3.String(), kind, len(wr.Entries))
	}

	if _, _, _, code := getSnapshot(t, node.URL, "not-a-vector"); code != http.StatusBadRequest {
		t.Errorf("garbled since vector: status %d, want 400", code)
	}
	alien := VersionVector{Epoch: vec.Epoch + 1, Shards: vec.Shards}
	if _, _, kind, _ := getSnapshot(t, node.URL, alien.String()); kind != SnapshotFull {
		t.Errorf("alien epoch answered %q, want a full resync", kind)
	}
	if m := agg.Metrics(); m.deltaRequests.Value() == 0 || m.fullResyncs.Value() == 0 {
		t.Errorf("protocol counters not accounted: deltas=%d resyncs=%d", m.deltaRequests.Value(), m.fullResyncs.Value())
	}
}

// TestFoldCachedByteIdenticalUnderRace is the incremental fold's
// differential test: with writers racing readers, every quiescent point
// must see the cached incremental Fold byte-identical to a serial Merge
// of everything submitted so far. Run under -race this also proves the
// snapshot and fold caches never share mutable state with the shard
// writers.
func TestFoldCachedByteIdenticalUnderRace(t *testing.T) {
	agg := NewAggregator(Config{Shards: 4, QueueDepth: 64, BatchSize: 4})
	defer agg.Close()
	serial := core.NewReport()

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
					// Reads race the writers; the result is some consistent
					// merge boundary, checked for bytes at quiescent points.
					agg.Fold()
				}
			}
		}()
	}

	for round := 0; round < 4; round++ {
		reps := make([]*core.Report, 16)
		for i := range reps {
			reps[i] = SyntheticUpload(int64(1000+round*100+i), fmt.Sprintf("device-r%d-%02d", round, i), 25)
			serial.Merge(reps[i])
		}
		var writers sync.WaitGroup
		for w := 0; w < 4; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				for i := w; i < len(reps); i += 4 {
					// SubmitDurable acks after the merge (no WAL configured),
					// which is the quiescence barrier the comparison needs —
					// SubmitWait acks on enqueue only.
					id, _ := ReportUploadID(reps[i])
					for {
						err := agg.SubmitDurable(reps[i], id)
						if err == ErrQueueFull {
							continue
						}
						if err != nil {
							t.Errorf("submit: %v", err)
						}
						break
					}
				}
			}(w)
		}
		writers.Wait()
		// Quiescent: every SubmitDurable ack means its merge completed.
		want := exportBytes(t, serial)
		if got := exportBytes(t, agg.Fold()); !bytes.Equal(got, want) {
			t.Fatalf("round %d: cached fold diverged from serial merge", round)
		}
		if got := exportBytes(t, agg.Fold()); !bytes.Equal(got, want) {
			t.Fatalf("round %d: repeated cached fold diverged", round)
		}
	}
	close(stop)
	readers.Wait()

	if agg.Metrics().foldCacheHits.Value() == 0 {
		t.Error("no fold was ever served from the version-vector cache")
	}
	if n := agg.Metrics().foldErrors.Value(); n != 0 {
		t.Errorf("healthy run recorded %d fold errors", n)
	}
}

// TestRegionalDeltaConvergesWithFold pins the regional tier: delta polling
// across rounds must stay byte-identical to the fold of every upload the
// nodes merged, a forced resync must converge to the same bytes, and a
// second poll round must actually ride deltas, not refetches.
func TestRegionalDeltaConvergesWithFold(t *testing.T) {
	agg1, node1 := newNode(t, 3)
	agg2, node2 := newNode(t, 2)
	reg := NewRegional([]string{node1.URL, node2.URL}, nil)
	ctx := context.Background()

	var sent []*core.Report
	feed := func(agg *Aggregator, seed int) {
		t.Helper()
		for i := 0; i < 8; i++ {
			sent = append(sent, mergeAll(t, agg, SyntheticUpload(int64(seed+i), fmt.Sprintf("device-%d-%02d", seed, i), 20))...)
		}
	}
	feed(agg1, 100)
	feed(agg2, 200)

	res := reg.PollDelta(ctx)
	if res.Failed != 0 {
		t.Fatalf("round 1 failed nodes: %v", res.Errs)
	}
	if !bytes.Equal(exportBytes(t, res.Report), exportBytes(t, core.FoldReports(sent...))) {
		t.Fatal("round 1 delta-polled region diverged from the fold of the uploads")
	}

	feed(agg1, 300)
	res = reg.PollDelta(ctx)
	if res.Failed != 0 || res.Deltas != 2 {
		t.Fatalf("round 2: failed=%d deltas=%d (want 0 failed, 2 delta answers)", res.Failed, res.Deltas)
	}
	if !bytes.Equal(exportBytes(t, res.Report), exportBytes(t, core.FoldReports(sent...))) {
		t.Fatal("round 2 delta-polled region diverged from the fold of the uploads")
	}

	// The report handed out in round 2 must stay frozen while later rounds
	// mutate the master (copy-on-write serving).
	frozen := exportBytes(t, res.Report)
	feed(agg2, 400)
	res3 := reg.PollDelta(ctx)
	if bytes.Equal(exportBytes(t, res3.Report), frozen) {
		t.Fatal("round 3 did not observe new uploads")
	}
	if !bytes.Equal(exportBytes(t, res.Report), frozen) {
		t.Fatal("a later poll round mutated a previously returned report")
	}

	reg.ForceResync()
	res4 := reg.PollDelta(ctx)
	if res4.Deltas != 0 {
		t.Fatalf("post-resync round rode %d deltas, want full refetches", res4.Deltas)
	}
	if !bytes.Equal(exportBytes(t, res4.Report), exportBytes(t, res3.Report)) {
		t.Fatal("forced full resync changed the regional bytes")
	}
	if !bytes.Equal(exportBytes(t, res4.Report), exportBytes(t, core.FoldReports(sent...))) {
		t.Fatal("resynced region diverged from the fold of the uploads")
	}
}

// TestDeltaResyncAfterRestart simulates a node restart: the same URL
// starts answering from a fresh aggregator (new epoch, different shard
// count, different — smaller — state). The next poll must detect the
// incomparable vector, resync that node in full, and shrink the regional
// view to the restarted node's truth.
func TestDeltaResyncAfterRestart(t *testing.T) {
	agg1 := NewAggregator(Config{Shards: 3, QueueDepth: 64})
	defer agg1.Close()
	var mu sync.Mutex
	handler := NewServer(agg1).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := handler
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	for i := 0; i < 10; i++ {
		mergeAll(t, agg1, SyntheticUpload(int64(500+i), fmt.Sprintf("device-a%02d", i), 20))
	}
	reg := NewRegional([]string{ts.URL}, nil)
	ctx := context.Background()
	if res := reg.PollDelta(ctx); res.Failed != 0 {
		t.Fatalf("pre-restart poll failed: %v", res.Errs)
	}
	if res := reg.PollDelta(ctx); res.Deltas != 1 {
		t.Fatalf("pre-restart second poll rode %d deltas, want 1", res.Deltas)
	}

	// "Restart" the node: fresh epoch, different shard count, less data.
	agg2 := NewAggregator(Config{Shards: 2, QueueDepth: 64})
	defer agg2.Close()
	var sent []*core.Report
	for i := 0; i < 3; i++ {
		sent = append(sent, mergeAll(t, agg2, SyntheticUpload(int64(900+i), fmt.Sprintf("device-b%02d", i), 15))...)
	}
	mu.Lock()
	handler = NewServer(agg2).Handler()
	mu.Unlock()

	res := reg.PollDelta(ctx)
	if res.Failed != 0 {
		t.Fatalf("post-restart poll failed: %v", res.Errs)
	}
	if res.Deltas != 0 {
		t.Fatal("post-restart poll was answered with a delta; the epoch change must force a full resync")
	}
	if !bytes.Equal(exportBytes(t, res.Report), exportBytes(t, core.FoldReports(sent...))) {
		t.Fatal("post-restart region does not match the restarted node's uploads")
	}
	// And the next round is back on deltas against the new epoch.
	if res := reg.PollDelta(ctx); res.Deltas != 1 {
		t.Fatalf("recovery round rode %d deltas, want 1", res.Deltas)
	}
}

// TestPollDeltaToleratesNodeFailure pins the degraded-not-dark policy: a
// dead node fails its slot but the round still serves every live node's
// state.
func TestPollDeltaToleratesNodeFailure(t *testing.T) {
	agg, node := newNode(t, 2)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "gone", http.StatusBadGateway)
	}))
	defer dead.Close()
	var sent []*core.Report
	for i := 0; i < 5; i++ {
		sent = append(sent, mergeAll(t, agg, SyntheticUpload(int64(700+i), fmt.Sprintf("device-c%02d", i), 20))...)
	}

	reg := NewRegional([]string{node.URL, dead.URL}, nil)
	res := reg.PollDelta(context.Background())
	if res.Failed != 1 {
		t.Fatalf("failed=%d, want exactly the dead node", res.Failed)
	}
	if !bytes.Equal(exportBytes(t, res.Report), exportBytes(t, core.FoldReports(sent...))) {
		t.Fatal("degraded round lost the live node's state")
	}
}

// TestPollDeltaKeepsMirrorOfCrashedNode: a node whose aggregator crashed
// while its HTTP server still answers must fail its poll round, not serve
// an empty fold that replaces its mirror. The region keeps the node's last
// mirrored state, byte for byte, round after round.
func TestPollDeltaKeepsMirrorOfCrashedNode(t *testing.T) {
	agg1, node1 := newNode(t, 2)
	agg2, node2 := newNode(t, 2)
	var sent []*core.Report
	for i := 0; i < 4; i++ {
		sent = append(sent, mergeAll(t, agg1, SyntheticUpload(int64(800+i), fmt.Sprintf("device-k%02d", i), 30))...)
		sent = append(sent, mergeAll(t, agg2, SyntheticUpload(int64(900+i), fmt.Sprintf("device-m%02d", i), 30))...)
	}
	reg := NewRegional([]string{node1.URL, node2.URL}, nil)
	res := reg.PollDelta(context.Background())
	if res.Failed != 0 {
		t.Fatalf("healthy round failed: %v", res.Errs)
	}
	before := exportBytes(t, res.Report)
	if !bytes.Equal(before, exportBytes(t, core.FoldReports(sent...))) {
		t.Fatal("healthy round diverged from the uploads")
	}

	agg2.Crash()
	if _, code := getReport(t, node2.URL); code != http.StatusServiceUnavailable {
		t.Errorf("/v1/report of a crashed node: status %d, want 503", code)
	}
	for round := 0; round < 2; round++ {
		res = reg.PollDelta(context.Background())
		if res.Failed != 1 || res.Errs[1] == nil {
			t.Fatalf("round %d after the crash: failed=%d errs=%v, want node 2 failed", round, res.Failed, res.Errs)
		}
		if !bytes.Equal(exportBytes(t, res.Report), before) {
			t.Fatalf("round %d after the crash: the region lost the crashed node's mirror (%d entries)", round, res.Report.Len())
		}
	}
}

// getReport fetches base's /v1/report and returns its body and status.
func getReport(t *testing.T, base string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

// TestNodeTimeoutBoundsHungNode pins the per-node fetch timeout on both
// poll surfaces: a node that accepts connections but never answers must
// fail its own fetch within NodeTimeout instead of wedging the round
// (the regression that froze fleet-agg's poll loop on one hung node).
func TestNodeTimeoutBoundsHungNode(t *testing.T) {
	agg, node := newNode(t, 2)
	sent := mergeAll(t, agg, SyntheticUpload(900, "device-t0", 20))

	// Unblock the handler before the server's Close (deferred below) waits
	// for outstanding requests, or teardown itself would hang.
	hang := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-hang
	}))
	defer hung.Close()
	defer close(hang)

	reg := NewRegional([]string{node.URL, hung.URL}, nil)
	reg.NodeTimeout = 50 * time.Millisecond

	start := time.Now()
	res := reg.PollDelta(context.Background())
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("PollDelta took %v with a 50ms node timeout", el)
	}
	if res.Failed != 1 {
		t.Fatalf("failed=%d, want exactly the hung node", res.Failed)
	}
	if !bytes.Equal(exportBytes(t, res.Report), exportBytes(t, core.FoldReports(sent...))) {
		t.Fatal("hung node displaced the live node's state")
	}

	start = time.Now()
	if _, err := reg.Metrics(context.Background()); err == nil {
		t.Fatal("Metrics succeeded with a hung node")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("Metrics took %v with a 50ms node timeout", el)
	}
}
