package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fault"
)

// TestSubmitWireAcked pins the contract the zero-copy simulator builds on:
// SubmitWire returns only once its upload has merged, so the fold after
// each return holds it, and the folded state matches SubmitDurable of the
// same uploads, decoded back into reports, byte for byte.
func TestSubmitWireAcked(t *testing.T) {
	const uploads = 64
	want := NewAggregator(Config{Shards: 4})
	got := NewAggregator(Config{Shards: 4})
	hangs := 0
	for i := 0; i < uploads; i++ {
		wr, err := decodeDoc(encodeUpload(t, int64(i), "device-a", 12))
		if err != nil {
			t.Fatal(err)
		}
		if err := want.SubmitDurable(wr.Report(), UploadID{}); err != nil {
			t.Fatal(err)
		}
		if err := got.SubmitWire(wr); err != nil {
			t.Fatal(err)
		}
		hangs += wr.TotalHangs()
		if n := got.Fold().TotalHangs(); n != hangs {
			t.Fatalf("upload %d: fold holds %d hangs after SubmitWire returned, want %d", i, n, hangs)
		}
	}
	want.Close()
	got.Close()
	a, b := exportFold(t, want), exportFold(t, got)
	if a != b {
		t.Fatalf("wire fold diverges from report fold:\n%s\nvs\n%s", a, b)
	}
}

// TestSubmitWireAckedEmptyUpload: an upload with no entries and zero
// health is accepted and merges nothing.
func TestSubmitWireAckedEmptyUpload(t *testing.T) {
	agg := NewAggregator(Config{Shards: 4})
	defer agg.Close()
	if err := agg.SubmitWire(&core.WireReport{Device: "device-a"}); err != nil {
		t.Fatal(err)
	}
	snap := agg.Metrics().Registry().Snapshot()
	if a, m := snap.Value("hangdoctor_fleet_uploads_accepted_total"), snap.Value("hangdoctor_fleet_merges_total"); a != 1 || m != 0 {
		t.Fatalf("empty upload: accepted %d, merges %d, want 1 and 0", a, m)
	}
}

// TestSubmitWireAckedHealthOnly: a health-only upload merges on shard 0
// alone before SubmitWire returns.
func TestSubmitWireAckedHealthOnly(t *testing.T) {
	agg := NewAggregator(Config{Shards: 4})
	defer agg.Close()
	wr := &core.WireReport{Device: "device-a"}
	wr.Health.StacksDropped = 3
	if err := agg.SubmitWire(wr); err != nil {
		t.Fatal(err)
	}
	if h := agg.Fold().Health; h.StacksDropped != 3 {
		t.Fatalf("health not merged: %+v", h)
	}
}

// TestSubmitWireAckedDurable: on a WAL-backed aggregator a nil return
// implies durability — close, reopen, and the recovered fold matches.
func TestSubmitWireAckedDurable(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, WAL: &WALConfig{Dir: filepath.Join(dir, "wal")}}
	agg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		wr, err := decodeDoc(encodeUpload(t, int64(100+i), "device-d", 6))
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.SubmitWire(wr); err != nil {
			t.Fatal(err)
		}
	}
	agg.Close()
	want := exportFold(t, agg)

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
	if got := exportFold(t, re); got != want {
		t.Fatalf("recovered fold diverges from acked state:\n%s\nvs\n%s", got, want)
	}
}

// TestSubmitWireAckedAfterClose: after Close, SubmitWire refuses with
// ErrClosed and merges nothing.
func TestSubmitWireAckedAfterClose(t *testing.T) {
	agg := NewAggregator(Config{Shards: 2})
	agg.Close()
	wr, err := decodeDoc(encodeUpload(t, 7, "device-c", 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.SubmitWire(wr); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	if n := agg.Fold().Len(); n != 0 {
		t.Fatalf("a refused upload left %d entries", n)
	}
}

// TestCrashedUnblocks: a submitter waiting for a durable node's committer
// returns ErrCrashed when the node crashes instead of waiting forever. The
// committer is held in the upload's barrier until the crash has begun, so
// the upload never merges.
func TestCrashedUnblocks(t *testing.T) {
	cfg := durableCfg(t.TempDir(), 2)
	var armed atomic.Bool
	var once sync.Once
	syncing, unblock := make(chan struct{}), make(chan struct{})
	cfg.WAL.FS = crashOnSync{FS: fault.DiskFS, onSync: func() {
		if armed.Load() {
			once.Do(func() { close(syncing); <-unblock })
		}
	}}
	agg := mustOpen(t, cfg)
	armed.Store(true)
	answered := make(chan error, 1)
	go func() { answered <- agg.SubmitDurable(SyntheticUpload(3, "device-crash", 8), UploadID{}) }()
	<-syncing
	go agg.Crash()
	<-agg.crashCh
	close(unblock)
	select {
	case err := <-answered:
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("submit across a crash = %v, want ErrCrashed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the submitter did not return after Crash")
	}
	agg.Crash() // waits out the teardown
}

// TestSubmitKeepsNoUploadAlive: once a submit has returned, nothing the
// node keeps refers to the upload — not a shard, not the committer's
// batch — so the collector reclaims its view.
func TestSubmitKeepsNoUploadAlive(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			cfg := Config{Shards: 4}
			if durable {
				cfg = durableCfg(t.TempDir(), 4)
			}
			agg := mustOpen(t, cfg)
			defer agg.Close()
			collected := make(chan struct{})
			func() {
				wr, err := decodeDoc(encodeUpload(t, 5, "device-gc", 12))
				if err != nil {
					t.Fatal(err)
				}
				runtime.SetFinalizer(wr, func(*core.WireReport) { close(collected) })
				if err := agg.SubmitWire(wr); err != nil {
					t.Fatal(err)
				}
			}()
			for i := 0; i < 20; i++ {
				runtime.GC()
				select {
				case <-collected:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			t.Fatal("the node keeps a merged upload alive")
		})
	}
}

// encodeUpload produces one synthetic binary document.
func encodeUpload(t *testing.T, seed int64, device string, entries int) []byte {
	t.Helper()
	enc := core.NewBinaryEncoder(device)
	doc := enc.Encode(SyntheticUpload(seed, device, entries))
	return append([]byte(nil), doc...)
}

// exportFold renders an aggregator's final folded report as canonical JSON.
func exportFold(t *testing.T, a *Aggregator) string {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Fold().Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
