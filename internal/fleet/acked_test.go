package fleet

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"hangdoctor/internal/core"
)

// ackCollector is a WireAck callback that counts completions and remembers
// errors, releasing a waiter per completion.
type ackCollector struct {
	mu    sync.Mutex
	n     int
	errs  []error
	fired chan struct{}
}

func newAckCollector() *ackCollector {
	return &ackCollector{fired: make(chan struct{}, 1024)}
}

func (c *ackCollector) fn(err error) {
	c.mu.Lock()
	c.n++
	if err != nil {
		c.errs = append(c.errs, err)
	}
	c.mu.Unlock()
	c.fired <- struct{}{}
}

func (c *ackCollector) counts() (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, len(c.errs)
}

// TestSubmitWireAcked pins the contract the zero-alloc simulator builds on:
// the callback fires exactly once per submission, only after every routed
// fragment merged, and the folded state matches SubmitWait of the same
// uploads, decoded back into reports, byte for byte.
func TestSubmitWireAcked(t *testing.T) {
	const uploads = 64
	want := NewAggregator(Config{Shards: 4})
	got := NewAggregator(Config{Shards: 4})
	col := newAckCollector()
	wa := NewWireAck(col.fn)
	for i := 0; i < uploads; i++ {
		doc := encodeUpload(t, int64(i), "device-a", 12)
		w1, err := core.NewBinaryDecoder().Decode(doc)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := core.NewBinaryDecoder().Decode(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.SubmitWait(w1.Report()); err != nil {
			t.Fatal(err)
		}
		if err := got.SubmitWireAcked(w2, wa); err != nil {
			t.Fatal(err)
		}
		// One ack in flight per WireAck: wait for the callback before the
		// next submission reuses it.
		<-col.fired
	}
	if n, errs := col.counts(); n != uploads || errs != 0 {
		t.Fatalf("acks fired %d times with %d errors, want %d/0", n, errs, uploads)
	}
	want.Close()
	got.Close()
	a, b := exportFold(t, want), exportFold(t, got)
	if a != b {
		t.Fatalf("acked fold diverges from waited fold:\n%s\nvs\n%s", a, b)
	}
}

// TestSubmitWireAckedEmptyUpload: an upload that routes zero fragments
// (no entries, zero health) must still fire the callback — otherwise the
// producer leaks the buffer it was waiting to recycle.
func TestSubmitWireAckedEmptyUpload(t *testing.T) {
	agg := NewAggregator(Config{Shards: 4})
	defer agg.Close()
	col := newAckCollector()
	wa := NewWireAck(col.fn)
	if err := agg.SubmitWireAcked(&core.WireReport{Device: "device-a"}, wa); err != nil {
		t.Fatal(err)
	}
	<-col.fired
	if n, errs := col.counts(); n != 1 || errs != 0 {
		t.Fatalf("empty upload acks = %d/%d errors, want 1/0", n, errs)
	}
}

// TestSubmitWireAckedHealthOnly: a health-only upload routes exactly one
// fragment (shard 0) and must ack once it merges.
func TestSubmitWireAckedHealthOnly(t *testing.T) {
	agg := NewAggregator(Config{Shards: 4})
	col := newAckCollector()
	wa := NewWireAck(col.fn)
	wr := &core.WireReport{Device: "device-a"}
	wr.Health.StacksDropped = 3
	if err := agg.SubmitWireAcked(wr, wa); err != nil {
		t.Fatal(err)
	}
	<-col.fired
	agg.Close()
	if h := agg.Fold().Health; h.StacksDropped != 3 {
		t.Fatalf("health not merged: %+v", h)
	}
}

// TestSubmitWireAckedDurable: on a WAL-backed aggregator the callback must
// imply durability — close, reopen, and the recovered fold matches.
func TestSubmitWireAckedDurable(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, WAL: &WALConfig{Dir: filepath.Join(dir, "wal")}}
	agg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := newAckCollector()
	wa := NewWireAck(col.fn)
	for i := 0; i < 8; i++ {
		wr, err := core.NewBinaryDecoder().Decode(encodeUpload(t, int64(100+i), "device-d", 6))
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.SubmitWireAcked(wr, wa); err != nil {
			t.Fatal(err)
		}
		<-col.fired
	}
	if n, errs := col.counts(); n != 8 || errs != 0 {
		t.Fatalf("acks = %d with %d errors, want 8/0", n, errs)
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

// TestSubmitWireAckedAfterClose: ErrClosed is synchronous and the callback
// never fires, so the caller keeps buffer ownership.
func TestSubmitWireAckedAfterClose(t *testing.T) {
	agg := NewAggregator(Config{Shards: 2})
	agg.Close()
	col := newAckCollector()
	wa := NewWireAck(col.fn)
	wr, err := core.NewBinaryDecoder().Decode(encodeUpload(t, 7, "device-c", 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.SubmitWireAcked(wr, wa); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	if n, _ := col.counts(); n != 0 {
		t.Fatalf("callback fired %d times after synchronous rejection", n)
	}
}

// TestCrashedUnblocks: Crashed() must close on Crash so producers blocked
// waiting for ack-owned resources can unwind.
func TestCrashedUnblocks(t *testing.T) {
	agg := NewAggregator(Config{Shards: 2})
	select {
	case <-agg.Crashed():
		t.Fatal("Crashed() closed before Crash")
	default:
	}
	agg.Crash()
	select {
	case <-agg.Crashed():
	default:
		t.Fatal("Crashed() did not close after Crash")
	}
}

func TestNewWireAckNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWireAck(nil) must panic")
		}
	}()
	NewWireAck(nil)
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
