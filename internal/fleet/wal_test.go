package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fault"
)

// durableCfg is the small-knob durable config the WAL tests share:
// compaction every few records so mid-run compactions actually happen.
func durableCfg(dir string, shards int) Config {
	return Config{
		Shards: shards, QueueDepth: 256, BatchSize: 4,
		WAL: &WALConfig{Dir: dir, Sync: SyncBatch, CompactEvery: 8, DedupWindow: 1024},
	}
}

func mustOpen(t *testing.T, cfg Config) *Aggregator {
	t.Helper()
	agg, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return agg
}

func submitAllDurable(t *testing.T, agg *Aggregator, reps []*core.Report) {
	t.Helper()
	for _, r := range reps {
		id, err := ReportUploadID(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.SubmitDurable(r.Clone(), id); err != nil {
			t.Fatalf("SubmitDurable: %v", err)
		}
	}
}

// TestWALFrameRoundTrip pins the record framing: frames written by
// appendFrame come back from frameReader byte-identical and in order.
func TestWALFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{recKindHeader, 'x'},
		bytes.Repeat([]byte{0xAB}, 1),
		bytes.Repeat([]byte("fragment"), 512),
	}
	var buf []byte
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	fr := &frameReader{r: bytes.NewReader(buf)}
	for i, want := range payloads {
		got, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d corrupted in round trip", i)
		}
	}
	if _, err := fr.next(); err != io.EOF {
		t.Fatalf("after last frame: err=%v, want io.EOF", err)
	}
	if fr.off != int64(len(buf)) {
		t.Fatalf("decoder offset %d, want %d", fr.off, len(buf))
	}
}

// TestWALFrameTornAndCorrupt pins the two failure classifications: a
// truncated frame reads as torn, a bit flip with all bytes present reads
// as corrupt, and both report the offset of the last whole record.
func TestWALFrameTornAndCorrupt(t *testing.T) {
	good := appendFrame(nil, []byte{recKindFragBin, 1, 2, 3})
	goodLen := int64(len(good))

	t.Run("torn", func(t *testing.T) {
		torn := append(append([]byte{}, good...), appendFrame(nil, []byte{9, 9, 9, 9})[:5]...)
		fr := &frameReader{r: bytes.NewReader(torn)}
		if _, err := fr.next(); err != nil {
			t.Fatal(err)
		}
		_, err := fr.next()
		var fe *frameError
		if !errors.As(err, &fe) || !fe.torn {
			t.Fatalf("err=%v, want torn frameError", err)
		}
		if fr.off != goodLen {
			t.Fatalf("truncation offset %d, want %d", fr.off, goodLen)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		second := appendFrame(nil, []byte{recKindFragBin, 7, 7})
		second[len(second)-1] ^= 0x01 // flip a payload bit, length intact
		fr := &frameReader{r: bytes.NewReader(append(append([]byte{}, good...), second...))}
		if _, err := fr.next(); err != nil {
			t.Fatal(err)
		}
		_, err := fr.next()
		var fe *frameError
		if !errors.As(err, &fe) || fe.torn {
			t.Fatalf("err=%v, want non-torn (corrupt) frameError", err)
		}
	})
	t.Run("implausible-length", func(t *testing.T) {
		bad := make([]byte, walFrameHeaderLen)
		binary.LittleEndian.PutUint32(bad[0:4], maxWALRecordLen+1)
		fr := &frameReader{r: bytes.NewReader(bad)}
		var fe *frameError
		if _, err := fr.next(); !errors.As(err, &fe) {
			t.Fatalf("err=%v, want frameError", err)
		}
	})
}

// TestDurableCleanRestart is the clean half of the durability story: a
// durable aggregator that is closed (drained, final snapshot) and
// reopened folds byte-identically to a serial merge — and the restart
// replays a snapshot, not a log tail, because Close compacted.
func TestDurableCleanRestart(t *testing.T) {
	dir := t.TempDir()
	reps := uploads(20, 30)
	serial := core.NewReport()
	serial.Merge(reps...)
	want := exportBytes(t, serial)

	agg := mustOpen(t, durableCfg(dir, 4))
	submitAllDurable(t, agg, reps)
	agg.Close()
	if got := exportBytes(t, agg.Fold()); !bytes.Equal(got, want) {
		t.Fatal("pre-restart fold diverged from serial merge")
	}

	agg2 := mustOpen(t, durableCfg(dir, 4))
	defer agg2.Close()
	if got := exportBytes(t, agg2.Fold()); !bytes.Equal(got, want) {
		t.Error("recovered fold diverged from serial merge")
	}
	snap := agg2.Metrics().Registry().Snapshot()
	if n := snap.Value("hangdoctor_fleet_wal_replayed_records_total"); n != 0 {
		t.Errorf("clean restart replayed %d tail records, want 0 (final snapshot should cover everything)", n)
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%04d.snap", i))); err != nil {
			t.Errorf("shard %d final snapshot missing: %v", i, err)
		}
	}
}

// TestDurableRestartWithoutClose covers the tail-replay path: the first
// aggregator is crashed (no drain, no final snapshot), so the second one
// must rebuild state from snapshot + log tail.
func TestDurableRestartWithoutClose(t *testing.T) {
	dir := t.TempDir()
	reps := uploads(20, 30)
	serial := core.NewReport()
	serial.Merge(reps...)

	agg := mustOpen(t, durableCfg(dir, 4))
	submitAllDurable(t, agg, reps)
	agg.Crash()

	agg2 := mustOpen(t, durableCfg(dir, 4))
	defer agg2.Close()
	if got := exportBytes(t, agg2.Fold()); !bytes.Equal(got, exportBytes(t, serial)) {
		t.Error("tail-replayed fold diverged from serial merge")
	}
	snap := agg2.Metrics().Registry().Snapshot()
	if n := snap.Value("hangdoctor_fleet_wal_replayed_records_total"); n == 0 {
		t.Error("crash restart replayed no records, expected a non-empty tail")
	}
}

// TestTornTailTruncated is the recovery invariant the issue names: a torn
// final record (crash mid-append) is detected and truncated, never
// aborting replay, and every whole record before it survives.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	reps := uploads(12, 20)
	serial := core.NewReport()
	serial.Merge(reps...)

	// Lay down durable state with no compaction (big CompactEvery) so
	// every record stays in the tail, then crash.
	cfg := durableCfg(dir, 2)
	cfg.WAL.CompactEvery = 1 << 20
	agg := mustOpen(t, cfg)
	submitAllDurable(t, agg, reps)
	agg.Crash()

	// Tear the tails by hand: a partial frame on shard 0, trailing garbage
	// that parses as an oversized length on shard 1.
	torn := appendFrame(nil, append([]byte{recKindFragBin}, bytes.Repeat([]byte{4}, 64)...))
	for i, tail := range [][]byte{torn[:len(torn)-9], {0xFF, 0xFF, 0xFF, 0x7F, 1, 2}} {
		f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("shard-%04d.wal", i)), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	agg2, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery aborted on torn tail: %v", err)
	}
	defer agg2.Close()
	if got := exportBytes(t, agg2.Fold()); !bytes.Equal(got, exportBytes(t, serial)) {
		t.Error("recovered fold lost whole records before the torn tail")
	}
	snap := agg2.Metrics().Registry().Snapshot()
	if n := snap.Value("hangdoctor_fleet_wal_truncated_tails_total"); n != 2 {
		t.Errorf("truncated tails = %d, want 2", n)
	}
}

// TestMidLogCorruptionSalvagesPrefix: a record failing CRC mid-log (bit
// rot) stops replay there, salvages everything before it, and surfaces a
// corruption counter — still never a panic or abort.
func TestMidLogCorruptionSalvagesPrefix(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir, 1)
	cfg.WAL.CompactEvery = 1 << 20
	agg := mustOpen(t, cfg)
	submitAllDurable(t, agg, uploads(8, 10))
	agg.Crash()

	path := filepath.Join(dir, "shard-0000.wal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10 // flip a bit somewhere in the middle
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	agg2, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery aborted on mid-log corruption: %v", err)
	}
	defer agg2.Close()
	snap := agg2.Metrics().Registry().Snapshot()
	if n := snap.Value("hangdoctor_fleet_wal_corrupt_records_total"); n == 0 {
		t.Error("corruption went uncounted")
	}
	if agg2.Fold().Len() == 0 {
		t.Error("no prefix salvaged before the corrupt record")
	}
}

// TestResendDeduplicated: resending an already-durable document (same
// content hash) is acknowledged but merged exactly once — the idempotency
// that makes retry-after-5xx and resend-after-crash safe.
func TestResendDeduplicated(t *testing.T) {
	dir := t.TempDir()
	agg := mustOpen(t, durableCfg(dir, 4))
	rep := SyntheticUpload(7, "device-dup", 40)
	id, err := ReportUploadID(rep)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := agg.SubmitDurable(rep.Clone(), id); err != nil {
			t.Fatalf("resend %d: %v", i, err)
		}
	}
	agg.Close()
	if got, want := exportBytes(t, agg.Fold()), exportBytes(t, rep); !bytes.Equal(got, want) {
		t.Error("resends were merged more than once")
	}
	snap := agg.Metrics().Registry().Snapshot()
	if n := snap.Value("hangdoctor_fleet_wal_fragments_deduped_total"); n == 0 {
		t.Error("dedup counter never moved")
	}
}

// TestResendDeduplicatedAcrossRestart: the dedup window survives both the
// snapshot (compacted IDs) and the tail (replayed IDs), so resends after
// a restart still merge exactly once.
func TestResendDeduplicatedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	reps := uploads(10, 25)
	serial := core.NewReport()
	serial.Merge(reps...)

	agg := mustOpen(t, durableCfg(dir, 4))
	submitAllDurable(t, agg, reps)
	agg.Crash()

	agg2 := mustOpen(t, durableCfg(dir, 4))
	submitAllDurable(t, agg2, reps) // resend everything
	agg2.Close()
	if got := exportBytes(t, agg2.Fold()); !bytes.Equal(got, exportBytes(t, serial)) {
		t.Error("post-restart resends were not deduplicated")
	}
}

// TestShardCountChangeRefused: recovery refuses a WAL written with a
// different shard count — fragment routing (and so dedup) would silently
// break otherwise.
func TestShardCountChangeRefused(t *testing.T) {
	dir := t.TempDir()
	agg := mustOpen(t, durableCfg(dir, 4))
	submitAllDurable(t, agg, uploads(4, 10))
	agg.Close()
	if _, err := Open(durableCfg(dir, 8)); err == nil {
		t.Fatal("Open with a different shard count succeeded, want refusal")
	}
}

// TestSyncPolicies: every policy round-trips through a crash+recovery.
func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncBatch, SyncOff} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableCfg(dir, 2)
			cfg.WAL.Sync = policy
			reps := uploads(8, 15)
			serial := core.NewReport()
			serial.Merge(reps...)
			agg := mustOpen(t, cfg)
			submitAllDurable(t, agg, reps)
			agg.Crash()
			agg2 := mustOpen(t, cfg)
			defer agg2.Close()
			if got := exportBytes(t, agg2.Fold()); !bytes.Equal(got, exportBytes(t, serial)) {
				t.Error("recovered fold diverged from serial merge")
			}
		})
	}
}

// TestReplayUnderShortReads: injected short reads (contract-legal partial
// Reads) during replay must be completely transparent — the decoder uses
// io.ReadFull discipline throughout.
func TestReplayUnderShortReads(t *testing.T) {
	dir := t.TempDir()
	reps := uploads(16, 20)
	serial := core.NewReport()
	serial.Merge(reps...)
	agg := mustOpen(t, durableCfg(dir, 2))
	submitAllDurable(t, agg, reps)
	agg.Crash()

	cfg := durableCfg(dir, 2)
	cfg.WAL.FS = fault.FaultyFS(fault.DiskFS, fault.NewStorage(3, fault.StorageRates{ShortRead: 0.9}))
	agg2, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery failed under short reads: %v", err)
	}
	defer agg2.Close()
	if got := exportBytes(t, agg2.Fold()); !bytes.Equal(got, exportBytes(t, serial)) {
		t.Error("short reads changed the recovered fold")
	}
}

// TestReplayUnderCorruptReads: injected bit rot during replay may lose
// data (that is what bit rot does) but must always be detected by the
// CRC — recovery returns an error or salvages, and never panics.
func TestReplayUnderCorruptReads(t *testing.T) {
	dir := t.TempDir()
	agg := mustOpen(t, durableCfg(dir, 2))
	submitAllDurable(t, agg, uploads(16, 20))
	agg.Crash()

	for seed := uint64(1); seed <= 5; seed++ {
		cfg := durableCfg(dir, 2)
		cfg.WAL.FS = fault.FaultyFS(fault.DiskFS, fault.NewStorage(seed, fault.StorageRates{CorruptRead: 0.05}))
		agg2, err := Open(cfg)
		if err != nil {
			continue // detected corruption in a snapshot: a legitimate refusal
		}
		agg2.Crash()
	}
}

// TestDurableHTTPUpload drives the durable path over HTTP: 202 means on
// disk, an identical retry dedups, and the folded report sees the
// document once.
func TestDurableHTTPUpload(t *testing.T) {
	dir := t.TempDir()
	agg := mustOpen(t, durableCfg(dir, 4))
	ts := httptest.NewServer(NewServer(agg).Handler())
	defer ts.Close()

	rep := SyntheticUpload(11, "device-http", 30)
	doc := exportBytes(t, rep)
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/upload", "application/json", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("durable upload attempt %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	agg.Close()
	if got := exportBytes(t, agg.Fold()); !bytes.Equal(got, doc) {
		t.Error("HTTP retry of the same document was double-merged")
	}
}

// FuzzWALFrameDecode: arbitrary bytes through the frame decoder never
// panic — they yield frames until a clean EOF, a torn tail, or a corrupt
// record, exactly the three outcomes recovery handles.
func FuzzWALFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, []byte{recKindHeader, '{', '}'}))
	valid := appendFrame(appendFrame(nil, []byte{recKindFragBin, 0, 1}), bytes.Repeat([]byte{7}, 300))
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &frameReader{r: bytes.NewReader(data)}
		var consumed int64
		for {
			payload, err := fr.next()
			if err == io.EOF {
				if consumed != int64(len(data)) {
					t.Fatalf("clean EOF after %d of %d bytes", consumed, len(data))
				}
				return
			}
			var fe *frameError
			if err != nil {
				if !errors.As(err, &fe) {
					t.Fatalf("unexpected error type %T: %v", err, err)
				}
				if fr.off > int64(len(data)) {
					t.Fatalf("truncation offset %d beyond input %d", fr.off, len(data))
				}
				return
			}
			if len(payload) == 0 {
				t.Fatal("decoder returned an empty frame without error")
			}
			consumed = fr.off
			// Fragment payloads additionally go through the report
			// decoder, which must reject garbage rather than panic.
			if payload[0] == recKindFragBin {
				decodeFragment(payload)
			}
		}
	})
}
