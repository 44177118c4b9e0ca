package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
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
		{recKindBase, 'x'},
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
// durable aggregator that is closed (drained, final compaction) and
// reopened folds byte-identically to a serial merge — and the restart
// replays one base record, not a log tail, because Close compacted.
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
	// The directory holds node.wal alone, and the log one base record:
	// every upload's ID, then the fold's canonical binary document.
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 || ents[0].Name() != nodeLogName {
		t.Fatalf("WAL dir after Close holds %v (err %v), want only %s", ents, err, nodeLogName)
	}
	raw, err := os.ReadFile(filepath.Join(dir, nodeLogName))
	if err != nil {
		t.Fatal(err)
	}
	fr := &frameReader{r: bytes.NewReader(raw)}
	payload, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.next(); err != io.EOF {
		t.Errorf("node.wal holds more than one record after Close (next: %v)", err)
	}
	if payload[0] != recKindBase {
		t.Fatalf("node.wal opens with record kind %d, want the base (%d)", payload[0], recKindBase)
	}
	n, k := binary.Uvarint(payload[1:])
	if k <= 0 || n != uint64(len(reps)) {
		t.Fatalf("base holds %d upload IDs, want %d", n, len(reps))
	}
	if doc := payload[1+k+int(n)*len(UploadID{}):]; !bytes.Equal(doc, core.AppendReportBinary(nil, agg.Fold())) {
		t.Error("the base document is not the canonical binary encoding of the fold")
	}

	agg2 := mustOpen(t, durableCfg(dir, 4))
	defer agg2.Close()
	if got := exportBytes(t, agg2.Fold()); !bytes.Equal(got, want) {
		t.Error("recovered fold diverged from serial merge")
	}
	snap := agg2.Metrics().Registry().Snapshot()
	if n := snap.Value("hangdoctor_fleet_wal_replayed_records_total"); n != 0 {
		t.Errorf("clean restart replayed %d tail records, want 0 (the final base should cover everything)", n)
	}
}

// TestDurableRestartWithoutClose covers the tail-replay path: the first
// aggregator is crashed (no drain, no final compaction), so the second one
// must rebuild state from the base record and the log tail behind it.
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
// base record (compacted IDs) and the tail (replayed IDs), so resends after
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
// and closed (a base record), reopened at 8 and crashed (a log tail), then
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

// TestShardLayoutRefused: a directory holding the files of an earlier
// release is refused by name, and nothing is written beside them — a node
// log started there would drop every upload they acknowledged. Those files
// are a per-shard log, a node snapshot, and a node log that opens with the
// JSON header (kind 1) instead of a base.
func TestShardLayoutRefused(t *testing.T) {
	frag := append([]byte{4}, make([]byte, len(UploadID{}))...)
	shardLog := appendFrame(nil, append([]byte{1}, `{"version":1,"shard":0,"shards":4,"gen":1}`...))
	shardLog = appendFrame(shardLog, core.AppendReportBinary(frag, SyntheticUpload(1, "device-old", 3)))
	snap := appendFrame(nil, append([]byte{3}, `{"version":2,"gen":1,"ids":[],"report":{"version":1,"entries":[]}}`...))
	nodeLog := appendFrame(nil, append([]byte{1}, `{"version":2,"gen":2}`...))
	for name, old := range map[string][]byte{"shard-0000.wal": shardLog, "node.snap": snap, nodeLogName: nodeLog} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, name), old, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(durableCfg(dir, 4))
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("Open beside an old %s: err=%v, want a refusal naming it", name, err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 1 {
				t.Errorf("refused Open left %d files, want only the old one", len(ents))
			}
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, old) {
				t.Errorf("refused Open changed %s (err %v)", name, err)
			}
		})
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
// Sync — a durability barrier, a compaction's tmp file or a directory.
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

// failLogCommit is a fault.FS that, once armed, fails and counts every
// Rename onto the node log: every compaction fails before its commit.
type failLogCommit struct {
	fault.FS
	armed    *atomic.Bool
	attempts *atomic.Int64
}

func (f failLogCommit) Rename(oldpath, newpath string) error {
	if f.armed.Load() && filepath.Base(newpath) == nodeLogName {
		f.attempts.Add(1)
		return errors.New("injected: compaction commit failed")
	}
	return f.FS.Rename(oldpath, newpath)
}

// TestCompactionFailuresCounted: a node whose compaction commits always
// fail after Open still acks every upload, counts every failed compaction
// (one after each upload's batch at CompactEvery 1 on one shard, and
// Close's final one) and no successful one, and a reopen on a clean
// filesystem replays the whole tail to the serial merge.
func TestCompactionFailuresCounted(t *testing.T) {
	dir := t.TempDir()
	reps := uploads(12, 20)
	serial := core.NewReport()
	serial.Merge(reps...)

	var armed atomic.Bool
	var attempts atomic.Int64
	cfg := durableCfg(dir, 1)
	cfg.WAL.CompactEvery = 1
	cfg.WAL.FS = failLogCommit{FS: fault.DiskFS, armed: &armed, attempts: &attempts}
	agg := mustOpen(t, cfg) // its first base commits
	armed.Store(true)
	submitAllDurable(t, agg, reps) // one upload per batch: each waits for its ack
	agg.Close()
	if n := attempts.Load(); n != int64(len(reps))+1 {
		t.Errorf("%d compaction commits attempted, want one per upload plus the final one (%d)", n, len(reps)+1)
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

// TestWALRecordBound: the writer applies the frame bound the reader
// enforces. An upload record beyond it (an upload can be: its canonical
// re-encoding spells out every string its device sent in earlier uploads)
// is nacked with nothing written; acked, it would have been salvaged away
// at the next boot with every record behind it.
func TestWALRecordBound(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir, 1)
	cfg.WAL.CompactEvery = 1 << 20
	reps := uploads(2, 10)
	serial := core.NewReport()
	serial.Merge(reps...)
	agg := mustOpen(t, cfg)
	submitAllDurable(t, agg, reps[:1])
	path := filepath.Join(dir, nodeLogName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// One byte beyond the bound. The check comes first, so the frame's
	// pages are never touched.
	over := make([]byte, walFrameHeaderLen+maxWALRecordLen+1)
	binary.LittleEndian.PutUint32(over, maxWALRecordLen+1)
	ack := newUploadAck()
	agg.commit <- logged{frame: over, id: UploadID{1}, frags: make([]shardMsg, 1), ack: ack}
	<-ack.done
	if ack.err == nil {
		t.Fatal("an upload record beyond the frame bound was acknowledged")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the refused record changed the log (err %v)", err)
	}
	submitAllDurable(t, agg, reps[1:])
	agg.Crash()

	agg2 := mustOpen(t, durableCfg(dir, 1))
	defer agg2.Close()
	if got := exportBytes(t, agg2.Fold()); !bytes.Equal(got, exportBytes(t, serial)) {
		t.Error("the log behind a refused record does not replay to the serial merge")
	}
	if n := agg2.Metrics().Registry().Snapshot().Value("hangdoctor_fleet_wal_replayed_records_total"); n != int64(len(reps)) {
		t.Errorf("replayed %d records, want %d", n, len(reps))
	}
}

// TestWALBaseBound: a base beyond the frame bound is refused before
// anything is written, and the log it would have replaced still takes
// appends and replays them.
func TestWALBaseBound(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir, 1).WAL.withDefaults()
	w, err := openNodeWAL(cfg, newMetrics(1).initWAL(), func(*core.WireReport) {})
	if err != nil {
		t.Fatal(err)
	}
	rep := SyntheticUpload(5, "device-base", 8)
	frame, id := uploadRecord(rep, UploadID{})
	if err := w.append(frame); err != nil {
		t.Fatal(err)
	}
	if err := w.barrier(); err != nil {
		t.Fatal(err)
	}
	over := make([]byte, walFrameHeaderLen+maxWALRecordLen+1)
	if err := w.commitBase(over); err == nil {
		t.Fatal("a base beyond the frame bound was committed")
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("a refused base left %v in the WAL dir (err %v), want only %s", ents, err, nodeLogName)
	}
	frame2, _ := uploadRecord(SyntheticUpload(6, "device-base", 8), UploadID{})
	if err := w.append(frame2); err != nil {
		t.Fatal(err)
	}
	if err := w.barrier(); err != nil {
		t.Fatal(err)
	}
	w.close()

	got := core.NewReport()
	w2, err := openNodeWAL(cfg, newMetrics(1).initWAL(), got.MergeWire)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	want := core.NewReport()
	want.Merge(rep, SyntheticUpload(6, "device-base", 8))
	if !bytes.Equal(exportBytes(t, got), exportBytes(t, want)) || w2.records != 2 || !w2.dedup.has(id) {
		t.Errorf("reopened log holds %d records, want both appends", w2.records)
	}
}

// dirSyncFS is a fault.FS that logs every Rename onto the node log and
// every Sync of the WAL directory, failing the next failDirSyncs of them.
type dirSyncFS struct {
	fault.FS
	dir          string
	mu           sync.Mutex
	ops          []string
	failDirSyncs int
}

func (d *dirSyncFS) Rename(oldpath, newpath string) error {
	err := d.FS.Rename(oldpath, newpath)
	d.mu.Lock()
	d.ops = append(d.ops, "rename "+filepath.Base(newpath))
	d.mu.Unlock()
	return err
}

func (d *dirSyncFS) OpenFile(name string, flag int, perm iofs.FileMode) (fault.File, error) {
	f, err := d.FS.OpenFile(name, flag, perm)
	if err != nil || name != d.dir {
		return f, err
	}
	return dirHandle{File: f, fs: d}, nil
}

type dirHandle struct {
	fault.File
	fs *dirSyncFS
}

func (h dirHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.failDirSyncs > 0 {
		h.fs.failDirSyncs--
		h.fs.ops = append(h.fs.ops, "dirsync failed")
		return errors.New("injected: directory sync failed")
	}
	h.fs.ops = append(h.fs.ops, "dirsync")
	return h.File.Sync()
}

// TestRenameDirSynced: every rename onto node.wal is made durable by a
// sync of the WAL directory before anything appended to the renamed log is
// acknowledged. Open's first base and each compaction sync it at once; when
// that sync fails the compaction is counted as failed, and the next upload
// is nacked (and rolled back) until a later directory sync succeeds.
// Directory syncs are not barriers. Under SyncOff nothing is synced.
func TestRenameDirSynced(t *testing.T) {
	reps := uploads(2, 12)
	dir := t.TempDir()
	fs := &dirSyncFS{FS: fault.DiskFS, dir: dir}
	cfg := durableCfg(dir, 1)
	cfg.WAL.CompactEvery = 1
	cfg.WAL.FS = fs
	agg := mustOpen(t, cfg)
	fs.mu.Lock()
	fs.failDirSyncs = 2
	fs.mu.Unlock()
	submitAllDurable(t, agg, reps[:1]) // its compaction's directory sync fails
	id, _ := ReportUploadID(reps[1])
	if err := agg.SubmitDurable(reps[1].Clone(), id); err == nil {
		t.Fatal("an upload was acked while the rename of its log was not durable")
	}
	submitAllDurable(t, agg, reps[1:]) // the resend
	agg.Close()

	fs.mu.Lock()
	ops := fs.ops
	fs.mu.Unlock()
	want := []string{
		"rename node.wal", "dirsync", // Open's first base
		"rename node.wal", "dirsync failed", // compaction after the first upload
		"dirsync failed",             // the second upload's barrier: nacked
		"rename node.wal", "dirsync", // compaction of the nacked attempt's batch
		"rename node.wal", "dirsync", // compaction after the resend
	}
	if !slices.Equal(ops, want) {
		t.Errorf("WAL renames and directory syncs:\n got %q\nwant %q", ops, want)
	}
	snap := agg.Metrics().Registry().Snapshot()
	for name, want := range map[string]int64{
		"hangdoctor_fleet_wal_compaction_errors_total": 1,
		"hangdoctor_fleet_wal_append_errors_total":     1,
		"hangdoctor_fleet_wal_fsyncs_total":            3, // one barrier per upload attempt
	} {
		if got := snap.Value(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	serial := core.NewReport()
	serial.Merge(reps...)
	agg2 := mustOpen(t, durableCfg(dir, 1))
	defer agg2.Close()
	if got := exportBytes(t, agg2.Fold()); !bytes.Equal(got, exportBytes(t, serial)) {
		t.Error("reopened fold does not hold each upload exactly once")
	}

	t.Run("sync-off", func(t *testing.T) {
		dir := t.TempDir()
		fs := &dirSyncFS{FS: fault.DiskFS, dir: dir}
		cfg := durableCfg(dir, 1)
		cfg.WAL.Sync, cfg.WAL.FS = SyncOff, fs
		agg := mustOpen(t, cfg)
		submitAllDurable(t, agg, reps)
		agg.Close()
		for _, op := range fs.ops {
			if op != "rename node.wal" {
				t.Errorf("SyncOff node logged %q", op)
			}
		}
	})
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
			continue // detected corruption in a base record: a legitimate refusal
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
	base := baseRecord(SyntheticUpload(3, "device-fuzz", 4), []UploadID{{1}, {2}})
	f.Add(base)
	valid := appendFrame(appendFrame(nil, []byte{recKindUpload, 0, 1}), bytes.Repeat([]byte{7}, 300))
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1})
	// A torn base, and a whole frame holding a truncated base payload.
	f.Add(base[:len(base)-7])
	f.Add(appendFrame(nil, base[walFrameHeaderLen:len(base)-7]))
	// A base claiming more upload IDs than its payload holds.
	f.Add(appendFrame(nil, []byte{recKindBase, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 2, 3}))
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
			// Upload and base payloads additionally go through the record
			// decoder, which must reject garbage rather than panic.
			if kind := payload[0]; kind == recKindUpload || kind == recKindBase {
				decodeRecord(payload, kind)
			}
		}
	})
}
