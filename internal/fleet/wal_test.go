package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fault"
)

// durableCfg is the small-knob durable config the WAL tests share:
// compaction every 2×shards records so mid-run compactions actually happen.
func durableCfg(dir string, shards int) Config {
	return Config{
		Shards: shards, QueueDepth: 256, BatchSize: 4,
		WAL: &WALConfig{Dir: dir, Sync: SyncBatch, CompactEvery: 2, DedupWindow: 1024},
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
	good := appendFrame(nil, []byte{recKindUpload, 1, 2, 3})
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
		second := appendFrame(nil, []byte{recKindUpload, 7, 7})
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
	if _, err := os.Stat(filepath.Join(dir, nodeSnapName)); err != nil {
		t.Errorf("final node snapshot missing: %v", err)
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
// aborting replay, and every whole record before it survives. Two tear
// shapes, one reopen each: a partial frame, and trailing garbage that
// parses as an oversized length.
func TestTornTailTruncated(t *testing.T) {
	reps := uploads(12, 20)
	serial := core.NewReport()
	serial.Merge(reps...)
	torn := appendFrame(nil, append([]byte{recKindUpload}, bytes.Repeat([]byte{4}, 64)...))
	for name, tail := range map[string][]byte{
		"partial-frame":    torn[:len(torn)-9],
		"oversized-length": {0xFF, 0xFF, 0xFF, 0x7F, 1, 2},
	} {
		t.Run(name, func(t *testing.T) {
			// Lay down durable state with no compaction (big CompactEvery)
			// so every record stays in the tail, then crash.
			dir := t.TempDir()
			cfg := durableCfg(dir, 2)
			cfg.WAL.CompactEvery = 1 << 20
			agg := mustOpen(t, cfg)
			submitAllDurable(t, agg, reps)
			agg.Crash()

			f, err := os.OpenFile(filepath.Join(dir, nodeLogName), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			agg2, err := Open(cfg)
			if err != nil {
				t.Fatalf("recovery aborted on torn tail: %v", err)
			}
			defer agg2.Close()
			if got := exportBytes(t, agg2.Fold()); !bytes.Equal(got, exportBytes(t, serial)) {
				t.Error("recovered fold lost whole records before the torn tail")
			}
			snap := agg2.Metrics().Registry().Snapshot()
			if n := snap.Value("hangdoctor_fleet_wal_truncated_tails_total"); n != 1 {
				t.Errorf("truncated tails = %d, want 1", n)
			}
			if n := snap.Value("hangdoctor_fleet_wal_replayed_records_total"); n != int64(len(reps)) {
				t.Errorf("replayed %d records, want every whole one (%d)", n, len(reps))
			}
		})
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

	path := filepath.Join(dir, nodeLogName)
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

// TestResendAnswersAfterMerge: a deduplicated resend is acknowledged only
// once its first copy has merged, like any other upload. The shard is
// wedged in the barrier that makes the first copy durable, so an ack that
// waited only for durability would land before the merge. The resend meets
// its first copy in the dedup window (a later batch) or in the same batch.
func TestResendAnswersAfterMerge(t *testing.T) {
	first, rep := SyntheticUpload(8, "device-first", 12), SyntheticUpload(9, "device-resend", 12)
	for _, inBatch := range []bool{false, true} {
		t.Run(fmt.Sprintf("in-batch=%v", inBatch), func(t *testing.T) {
			cfg := durableCfg(t.TempDir(), 1)
			var agg *Aggregator
			var armed atomic.Bool
			var syncs atomic.Int32
			holding, wedged := make(chan struct{}), make(chan func(), 1)
			cfg.WAL.FS = crashOnSync{FS: fault.DiskFS, onSync: func() {
				if !armed.Load() {
					return
				}
				switch n := syncs.Add(1); {
				case inBatch && n == 1:
					// The committer is in the barrier of an earlier upload:
					// hold it until both copies queue behind it, so they
					// share the next batch.
					close(holding)
					for len(agg.commit) < 2 {
						time.Sleep(time.Millisecond)
					}
				case inBatch && n == 2, !inBatch && n == 1:
					wedged <- wedgeShard(agg, 0)
				}
			}}
			agg = mustOpen(t, cfg)
			defer agg.Close()
			armed.Store(true)
			want := core.NewReport()
			answered := make(chan error, 2)
			submit := func() { answered <- agg.SubmitDurable(rep.Clone(), UploadID{}) }
			if inBatch {
				if err := agg.SubmitWait(first.Clone()); err != nil {
					t.Fatal(err)
				}
				want.Merge(first)
				<-holding
				go submit()
			}
			go submit()
			release := <-wedged
			defer release()
			if !inBatch {
				// The first copy is durable and its fragment waits behind
				// the wedge.
				for len(agg.shards[0]) == 0 {
					time.Sleep(time.Millisecond)
				}
				go submit()
			}
			select {
			case err := <-answered:
				t.Fatalf("an upload was answered (%v) before its shard could merge it", err)
			case <-time.After(50 * time.Millisecond):
			}
			release()
			want.Merge(rep)
			for i := 0; i < 2; i++ {
				if err := <-answered; err != nil {
					t.Fatal(err)
				}
				if got := exportBytes(t, agg.Fold()); !bytes.Equal(got, exportBytes(t, want)) {
					t.Fatal("the fold after an ack does not hold the upload exactly once")
				}
			}
			if n := agg.Metrics().Registry().Snapshot().Value("hangdoctor_fleet_wal_fragments_deduped_total"); n != 1 {
				t.Errorf("deduplicated %d uploads, want 1", n)
			}
		})
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

// TestShardCountChangeAcrossRestart: log records are whole uploads, so a
// node may reopen its WAL with another shard count. Written at 4 shards
// and closed (a snapshot), reopened at 8 and crashed (a log tail), then
// reopened at 2, every fold is byte-identical to the serial merge of what
// was submitted so far.
func TestShardCountChangeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	reps := uploads(24, 20)
	first, all := core.NewReport(), core.NewReport()
	first.Merge(reps[:12]...)
	all.Merge(reps...)

	agg := mustOpen(t, durableCfg(dir, 4))
	submitAllDurable(t, agg, reps[:12])
	agg.Close()

	cfg8 := durableCfg(dir, 8)
	cfg8.WAL.CompactEvery = 1 << 20 // keep what follows in the log tail
	agg8 := mustOpen(t, cfg8)
	if got := exportBytes(t, agg8.Fold()); !bytes.Equal(got, exportBytes(t, first)) {
		t.Error("fold reopened at 8 shards diverged from the serial merge")
	}
	submitAllDurable(t, agg8, reps) // the first half dedups at the new count
	agg8.Crash()

	agg2 := mustOpen(t, durableCfg(dir, 2))
	defer agg2.Close()
	if got := exportBytes(t, agg2.Fold()); !bytes.Equal(got, exportBytes(t, all)) {
		t.Error("fold reopened at 2 shards diverged from the serial merge")
	}
	snap := agg2.Metrics().Registry().Snapshot()
	if n := snap.Value("hangdoctor_fleet_wal_replayed_records_total"); n != 12 {
		t.Errorf("replayed %d tail records at 2 shards, want the 12 logged at 8", n)
	}
}

// TestShardLayoutRefused: a directory holding per-shard logs of the
// earlier format is refused by name, and nothing is written beside them —
// a node log started there would drop every upload they acknowledged.
func TestShardLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	hdr, err := json.Marshal(map[string]any{"version": 1, "shard": 0, "shards": 4, "gen": 1})
	if err != nil {
		t.Fatal(err)
	}
	old := appendFrame(nil, append([]byte{recKindHeader}, hdr...))
	frag := append([]byte{4}, make([]byte, len(UploadID{}))...)
	old = appendFrame(old, core.AppendReportBinary(frag, SyntheticUpload(1, "device-old", 3)))
	if err := os.WriteFile(filepath.Join(dir, "shard-0000.wal"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(durableCfg(dir, 4))
	if err == nil || !strings.Contains(err.Error(), "shard-0000.wal") {
		t.Fatalf("Open beside a per-shard log: err=%v, want a refusal naming shard-0000.wal", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("refused Open left %d files, want only the old log", len(ents))
	}
}

// TestDurableUploadOneRecordOneBarrier: a durable upload costs one log
// record and at most one barrier, however many shards its entries reach.
// Sequential 16-entry uploads on 8 shards each take their own barrier;
// under concurrent submitters group commit may only lower the count.
func TestDurableUploadOneRecordOneBarrier(t *testing.T) {
	const n = 64
	count := func(agg *Aggregator) (records, fsyncs int64) {
		snap := agg.Metrics().Registry().Snapshot()
		return snap.Value("hangdoctor_fleet_wal_records_appended_total"), snap.Value("hangdoctor_fleet_wal_fsyncs_total")
	}
	reps := uploads(n, 16)
	t.Run("sequential", func(t *testing.T) {
		agg := mustOpen(t, Config{Shards: 8, WAL: &WALConfig{Dir: t.TempDir(), Sync: SyncBatch}})
		defer agg.Close()
		for _, r := range reps {
			if err := agg.SubmitDurable(r.Clone(), UploadID{}); err != nil {
				t.Fatal(err)
			}
		}
		if records, fsyncs := count(agg); records != n || fsyncs != n {
			t.Errorf("%d uploads appended %d records with %d fsyncs, want %d and %d", n, records, fsyncs, n, n)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		agg := mustOpen(t, Config{Shards: 8, WAL: &WALConfig{Dir: t.TempDir(), Sync: SyncBatch}})
		defer agg.Close()
		var wg sync.WaitGroup
		for g := 0; g < 32; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < n; i += 32 {
					if err := agg.SubmitDurable(reps[i].Clone(), UploadID{}); err != nil {
						t.Error(err)
					}
				}
			}(g)
		}
		wg.Wait()
		if records, fsyncs := count(agg); records != n || fsyncs > n {
			t.Errorf("%d uploads appended %d records with %d fsyncs, want %d and at most %d", n, records, fsyncs, n, n)
		}
	})
}

// crashOnSync is a fault.FS whose files run onSync after every successful
// Sync — a durability barrier, or a snapshot or rotation commit.
type crashOnSync struct {
	fault.FS
	onSync func()
}

func (c crashOnSync) OpenFile(name string, flag int, perm iofs.FileMode) (fault.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncHookFile{File: f, onSync: c.onSync}, nil
}

type syncHookFile struct {
	fault.File
	onSync func()
}

func (f syncHookFile) Sync() error {
	err := f.File.Sync()
	if err == nil {
		f.onSync()
	}
	return err
}

// failSnapCommit is a fault.FS that fails, and counts, every Rename onto
// the node snapshot: every compaction fails before its commit.
type failSnapCommit struct {
	fault.FS
	attempts *atomic.Int64
}

func (f failSnapCommit) Rename(oldpath, newpath string) error {
	if filepath.Base(newpath) == nodeSnapName {
		f.attempts.Add(1)
		return errors.New("injected: snapshot commit failed")
	}
	return f.FS.Rename(oldpath, newpath)
}

// TestCompactionFailuresCounted: a node whose snapshot commits always fail
// still acks every upload, counts every failed compaction (one after each
// upload's batch at CompactEvery 1 on one shard, and Close's final one) and
// no successful one, and a reopen on a clean filesystem replays the whole
// tail to the serial merge.
func TestCompactionFailuresCounted(t *testing.T) {
	dir := t.TempDir()
	reps := uploads(12, 20)
	serial := core.NewReport()
	serial.Merge(reps...)

	var attempts atomic.Int64
	cfg := durableCfg(dir, 1)
	cfg.WAL.CompactEvery = 1
	cfg.WAL.FS = failSnapCommit{FS: fault.DiskFS, attempts: &attempts}
	agg := mustOpen(t, cfg)
	submitAllDurable(t, agg, reps) // one upload per batch: each waits for its ack
	agg.Close()
	if n := attempts.Load(); n != int64(len(reps))+1 {
		t.Errorf("%d snapshot commits attempted, want one per upload plus the final one (%d)", n, len(reps)+1)
	}
	snap := agg.Metrics().Registry().Snapshot()
	if got, want := snap.Value("hangdoctor_fleet_wal_compaction_errors_total"), attempts.Load(); got != want {
		t.Errorf("compaction_errors_total = %d, want the %d failed attempts", got, want)
	}
	if got := snap.Value("hangdoctor_fleet_wal_compactions_total"); got != 0 {
		t.Errorf("compactions_total = %d, want 0", got)
	}

	agg2 := mustOpen(t, durableCfg(dir, 1))
	defer agg2.Close()
	if got := exportBytes(t, agg2.Fold()); !bytes.Equal(got, exportBytes(t, serial)) {
		t.Error("replayed fold diverged from serial merge")
	}
	if n := agg2.Metrics().Registry().Snapshot().Value("hangdoctor_fleet_wal_replayed_records_total"); n != int64(len(reps)) {
		t.Errorf("reopen replayed %d records, want the whole tail (%d)", n, len(reps))
	}
}

// TestCrashAfterBarrierBeforeMerge crashes the node right after the
// barrier of its k-th upload, before the committer can route the upload
// to the shards. The upload is durable but unacknowledged: recovery holds
// it exactly once, and its resend is deduplicated.
func TestCrashAfterBarrierBeforeMerge(t *testing.T) {
	reps := uploads(6, 12)
	for k := 1; k <= len(reps); k++ {
		t.Run(fmt.Sprintf("upload-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableCfg(dir, 4)
			cfg.WAL.CompactEvery = 1 << 20 // every sync after Open is a barrier
			var agg *Aggregator
			var armed atomic.Bool
			var syncs atomic.Int32
			cfg.WAL.FS = crashOnSync{FS: fault.DiskFS, onSync: func() {
				if armed.Load() && syncs.Add(1) == int32(k) {
					// Crash waits for the committer, which is the caller
					// here: start it, and return once it has begun.
					go agg.Crash()
					<-agg.Crashed()
				}
			}}
			agg = mustOpen(t, cfg)
			armed.Store(true)
			for _, r := range reps[:k] {
				if err := agg.SubmitDurable(r.Clone(), UploadID{}); err != nil && !errors.Is(err, ErrCrashed) {
					t.Fatal(err)
				}
			}
			agg.Crash()

			want := core.NewReport()
			want.Merge(reps[:k]...)
			re := mustOpen(t, durableCfg(dir, 4))
			if got := exportBytes(t, re.Fold()); !bytes.Equal(got, exportBytes(t, want)) {
				re.Close()
				t.Fatal("recovered fold does not hold the crashed upload exactly once")
			}
			if err := re.SubmitDurable(reps[k-1].Clone(), UploadID{}); err != nil {
				re.Close()
				t.Fatal(err)
			}
			re.Close()
			if n := re.Metrics().Registry().Snapshot().Value("hangdoctor_fleet_wal_fragments_deduped_total"); n != 1 {
				t.Errorf("resend of the crashed upload deduplicated %d times, want 1", n)
			}
			if got := exportBytes(t, re.Fold()); !bytes.Equal(got, exportBytes(t, want)) {
				t.Error("resend of the crashed upload merged it twice")
			}
		})
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

// uploadAndRestart posts JSON docs to a durable node and checks that the
// entry at (app, action, root) is served by every read the node offers:
// /v1/snapshot decodes, the JSON export imports, and both a Crash and a
// Close followed by Open recover it. want checks the entry each time.
func uploadAndRestart(t *testing.T, docs []string, key [3]string, want func(e *core.ReportEntry) error) {
	t.Helper()
	check := func(stage string, rep *core.Report) {
		t.Helper()
		for _, e := range rep.Entries() {
			if [3]string{e.App, e.ActionUID, e.RootCause} == key {
				if err := want(e); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				return
			}
		}
		t.Fatalf("%s: the acked entry is missing", stage)
	}
	dir := t.TempDir()
	agg := mustOpen(t, durableCfg(dir, 2))
	ts := httptest.NewServer(NewServer(agg).Handler())
	defer ts.Close()
	for i, doc := range docs {
		resp, err := http.Post(ts.URL+"/v1/upload", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("upload %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	wr, _, _, _ := getSnapshot(t, ts.URL, "")
	check("/v1/snapshot", wr.Report())
	resp, err := http.Get(ts.URL + "/v1/report?format=json")
	if err != nil {
		t.Fatal(err)
	}
	exported, err := core.ImportReport(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("the node's JSON export does not import: %v", err)
	}
	check("JSON export", exported)

	agg.Crash()
	agg = mustOpen(t, durableCfg(dir, 2))
	check("Crash+Open", agg.Fold())
	agg.Close()
	agg = mustOpen(t, durableCfg(dir, 2))
	defer agg.Close()
	check("Close+Open", agg.Fold())
}

// TestUploadSumSaturates: two acked uploads whose response sums add past
// math.MaxInt64 merge to a saturated sum, not a negative one that no
// decoder accepts, so the node keeps serving and recovering the entry.
func TestUploadSumSaturates(t *testing.T) {
	doc := func(device string) string {
		return fmt.Sprintf(`{"version":1,"entries":[{"app":"App","action_uid":"App/act","root_cause":"c.C.m","file":"C.java","line":1,"hangs":1,"devices":[%q],"max_response_ns":1000,"sum_response_ns":%d}]}`,
			device, int64(math.MaxInt64))
	}
	uploadAndRestart(t, []string{doc("device-a"), doc("device-b")}, [3]string{"App", "App/act", "c.C.m"},
		func(e *core.ReportEntry) error {
			if e.Hangs != 2 || e.SumResponse != math.MaxInt64 || len(e.Devices) != 2 {
				return fmt.Errorf("entry holds %d hangs, sum %d, %d devices; want 2, %d, 2", e.Hangs, e.SumResponse, len(e.Devices), int64(math.MaxInt64))
			}
			return nil
		})
}

// TestUploadHangsBeyondInt32: an acked JSON upload may carry a hang count
// above math.MaxInt32, and the binary snapshot and WAL record that carry
// it must decode it, or the node stops serving snapshots and a crash
// loses the upload.
func TestUploadHangsBeyondInt32(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("a 32-bit int holds no such count, so the JSON importer rejects the upload")
	}
	hangs := int64(1) << 40
	doc := fmt.Sprintf(`{"version":1,"entries":[{"app":"App","action_uid":"App/act","root_cause":"c.C.m","file":"C.java","line":1,"hangs":%d,"devices":["device-a"],"max_response_ns":1000,"sum_response_ns":1000}]}`, hangs)
	uploadAndRestart(t, []string{doc}, [3]string{"App", "App/act", "c.C.m"},
		func(e *core.ReportEntry) error {
			if int64(e.Hangs) != hangs {
				return fmt.Errorf("entry holds %d hangs, want %d", e.Hangs, hangs)
			}
			return nil
		})
}

// FuzzWALFrameDecode: arbitrary bytes through the frame decoder never
// panic — they yield frames until a clean EOF, a torn tail, or a corrupt
// record, exactly the three outcomes recovery handles.
func FuzzWALFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, []byte{recKindHeader, '{', '}'}))
	valid := appendFrame(appendFrame(nil, []byte{recKindUpload, 0, 1}), bytes.Repeat([]byte{7}, 300))
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
			// Upload payloads additionally go through the report
			// decoder, which must reject garbage rather than panic.
			if payload[0] == recKindUpload {
				decodeRecord(payload)
			}
		}
	})
}
