package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"hangdoctor/internal/core"
)

// TestRingDeterministic pins that the ring is a pure function of the node
// set: construction order must not matter, and repeated lookups agree.
func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"node-a", "node-b", "node-c"}, 64)
	b := NewRing([]string{"node-c", "node-a", "node-b"}, 64)
	for i := 0; i < 1000; i++ {
		dev := fmt.Sprintf("device-%06d", i)
		if a.Node(dev) != b.Node(dev) {
			t.Fatalf("ring depends on construction order: %s → %s vs %s", dev, a.Node(dev), b.Node(dev))
		}
	}
}

// TestRingBalance checks the virtual points spread devices roughly evenly:
// with 128 points per node no node should own more than twice its fair
// share of a large device population.
func TestRingBalance(t *testing.T) {
	nodes := []string{"node-a", "node-b", "node-c", "node-d"}
	ring := NewRing(nodes, 0) // default replicas
	counts := map[string]int{}
	const devices = 20000
	for i := 0; i < devices; i++ {
		counts[ring.Node(fmt.Sprintf("device-%06d", i))]++
	}
	fair := devices / len(nodes)
	for _, n := range nodes {
		if counts[n] == 0 {
			t.Fatalf("node %s owns no devices", n)
		}
		if counts[n] > 3*fair/2 {
			t.Errorf("node %s owns %d devices (fair share %d)", n, counts[n], fair)
		}
	}
	// Sequential device names must not cluster on one arc (the failure mode
	// of a hash without a finalizer): a small consecutive window already
	// spreads across nodes.
	window := map[string]bool{}
	for i := 0; i < 64; i++ {
		window[ring.Node(fmt.Sprintf("device-%06d", i))] = true
	}
	if len(window) < 2 {
		t.Errorf("first 64 sequential devices all routed to one node: %v", window)
	}
}

// TestRingRemapLocality pins the consistent-hashing property the
// dictionary tier depends on: removing one node remaps only the devices it
// owned — every other device keeps its node, so its dictionary survives.
func TestRingRemapLocality(t *testing.T) {
	before := NewRing([]string{"node-a", "node-b", "node-c", "node-d"}, 0)
	after := NewRing([]string{"node-a", "node-b", "node-c"}, 0)
	for i := 0; i < 5000; i++ {
		dev := fmt.Sprintf("device-%06d", i)
		was := before.Node(dev)
		now := after.Node(dev)
		if was != "node-d" && now != was {
			t.Fatalf("device %s moved %s → %s though its node never left", dev, was, now)
		}
	}
}

// newNode boots one complete fleetd node — aggregator plus HTTP server —
// and returns the test server.
func newNode(t *testing.T, shards int) (*Aggregator, *httptest.Server) {
	t.Helper()
	agg := NewAggregator(Config{Shards: shards, QueueDepth: 64})
	ts := httptest.NewServer(NewServer(agg).Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { agg.Close() })
	return agg, ts
}

// TestRegionalFoldByteIdentical is the multi-node determinism bar: the
// same uploads routed by device across two fleetd nodes, snapshotted and
// folded by the regional tier, must produce a report byte-identical to a
// single aggregator having ingested everything — and the regional metrics
// fold must account for every accepted upload.
func TestRegionalFoldByteIdentical(t *testing.T) {
	agg1, node1 := newNode(t, 3)
	agg2, node2 := newNode(t, 2)
	nodeAgg := map[string]*Aggregator{node1.URL: agg1, node2.URL: agg2}
	ring := NewRing([]string{node1.URL, node2.URL}, 0)

	const devices, uploadsPer = 12, 3
	serial := core.NewReport()
	encs := map[string]*core.BinaryEncoder{}
	for seq := 0; seq < uploadsPer; seq++ {
		for d := 0; d < devices; d++ {
			device := fmt.Sprintf("device-%03d", d)
			rep := SyntheticUpload(int64(100+d*7+seq), device, 25)
			serial.Merge(rep)
			enc := encs[device]
			if enc == nil {
				enc = core.NewBinaryEncoder(device)
				encs[device] = enc
			}
			node := ring.Node(device)
			resp, err := http.Post(node+"/v1/upload", core.BinaryContentType,
				bytes.NewReader(enc.Encode(rep)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("device %s seq %d on %s: status %d", device, seq, node, resp.StatusCode)
			}
		}
	}
	// Routing by ring means each device hit exactly one node, so every
	// upload past the first rode that node's dictionary: no resyncs.
	var accepted int64
	for _, agg := range nodeAgg {
		s := agg.Metrics().Snapshot()
		accepted += s.Accepted
		if s.DictMismatches != 0 {
			t.Errorf("node saw %d dict mismatches; ring affinity should avoid all", s.DictMismatches)
		}
	}
	if accepted != devices*uploadsPer {
		t.Fatalf("nodes accepted %d uploads, want %d", accepted, devices*uploadsPer)
	}

	// A 202 means merged, so both nodes' snapshots already hold every
	// upload: the poll needs no drain first.
	reg := NewRegional([]string{node1.URL, node2.URL}, nil)
	res := reg.PollDelta(context.Background())
	if res.Failed != 0 {
		t.Fatalf("regional poll failed: %v", res.Errs)
	}
	if got, want := exportBytes(t, res.Report), exportBytes(t, serial); !bytes.Equal(got, want) {
		t.Error("regional fold diverged from single-aggregator merge")
	}

	// The metrics fold sums per series: regional accepted must equal the
	// sum over nodes, and the binary-upload counter must cover every send.
	merged, err := reg.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Value("hangdoctor_fleet_uploads_accepted_total"); got != accepted {
		t.Errorf("merged accepted = %d, want %d", got, accepted)
	}
	if got := merged.Value("hangdoctor_fleet_uploads_binary_total"); got != devices*uploadsPer {
		t.Errorf("merged binary uploads = %d, want %d", got, devices*uploadsPer)
	}
}
