package fleet

// wal.go is the durability layer of the sharded aggregator. Each
// single-writer shard goroutine owns one append-only log and one snapshot
// file; because only that goroutine ever touches them, the whole layer is
// lock-free by construction.
//
// On-disk layout (per shard i, inside WALConfig.Dir):
//
//	shard-0003.wal    length+CRC-framed records: one header record naming
//	                  the log generation, then one fragment record per
//	                  durably accepted upload fragment
//	shard-0003.snap   one framed snapshot record: the shard's compacted
//	                  report plus its dedup window, tagged with the log
//	                  generation it covers
//	*.tmp             in-flight snapshot/rotation files (crash debris,
//	                  replaced atomically by rename)
//
// Record framing is [len uint32le][crc32c uint32le][payload]; the payload
// starts with a one-byte kind. A torn tail (crash mid-append) fails the
// length, CRC, or read-full check; recovery truncates the file back to the
// last whole record and carries on — it never aborts.
//
// Compaction protocol: write snapshot-for-generation-G to a tmp file,
// fsync, rename over the snapshot (the atomic commit point), then rotate
// the log to generation G+1 the same way. A crash between the two steps
// leaves a snapshot at G and a log still at G; replay skips any log whose
// generation is <= the snapshot's, so nothing is double-merged.
//
// Exactly-once across crash/resend: every fragment record carries the
// 128-bit content hash of its parent upload. Replay rebuilds the shard's
// dedup window from the snapshot and the tail, so when a client resends an
// upload that was only partially durable (some shards logged their
// fragment, the ack never came), the shards that already have it skip it
// and the rest append it — the recovered fold is byte-identical to a run
// that never crashed.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fault"
)

// SyncPolicy says when an append becomes durable (and hence when a
// durable submit may be acknowledged).
type SyncPolicy string

const (
	// SyncAlways fsyncs after every fragment append. Strongest, slowest.
	SyncAlways SyncPolicy = "always"
	// SyncBatch fsyncs once per shard merge batch (group commit): every
	// ack waits for the barrier, but the barrier is amortized across the
	// batch. The default.
	SyncBatch SyncPolicy = "batch"
	// SyncOff never fsyncs: an append is "durable" once written. Survives
	// process crashes (the kernel holds the bytes) but not power loss.
	SyncOff SyncPolicy = "off"
)

// ParseSyncPolicy validates a -wal-sync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncBatch, SyncOff:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("fleet: unknown sync policy %q (want always|batch|off)", s)
}

// WALConfig enables the durability layer.
type WALConfig struct {
	// Dir holds the per-shard log and snapshot files.
	Dir string
	// Sync is the durability barrier policy (default SyncBatch).
	Sync SyncPolicy
	// CompactEvery compacts a shard's log into its snapshot after this
	// many appended records (default 4096).
	CompactEvery int
	// DedupWindow caps the remembered upload IDs per shard, FIFO-evicted
	// (default 65536). Resends arriving within the window are exactly-once;
	// the window only needs to outlast a client's retry horizon.
	DedupWindow int
	// FS is the filesystem seam (default fault.DiskFS); wrap it with
	// fault.FaultyFS to chaos-test recovery.
	FS fault.FS
}

func (c *WALConfig) withDefaults() *WALConfig {
	out := *c
	if out.Sync == "" {
		out.Sync = SyncBatch
	}
	if out.CompactEvery <= 0 {
		out.CompactEvery = 4096
	}
	if out.DedupWindow <= 0 {
		out.DedupWindow = 65536
	}
	if out.FS == nil {
		out.FS = fault.DiskFS
	}
	return &out
}

// UploadID identifies one upload document by content: the FNV-128a hash
// of its canonical binary encoding (core.AppendReportBinary). Identical
// report *content* shares an ID regardless of how the client serialized it
// — JSON key order, whitespace, or a binary re-encode against a different
// dictionary state all hash the same — which is what makes resending after
// a crash or a 5xx idempotent and defeats accidental double-counting from
// re-serialized duplicates.
type UploadID [16]byte

func (id UploadID) String() string { return hex.EncodeToString(id[:]) }

// ComputeUploadID hashes raw bytes. It identifies a document only as
// precisely as the bytes are canonical — prefer ReportUploadID, which
// hashes parsed content.
func ComputeUploadID(doc []byte) UploadID {
	h := fnv.New128a()
	h.Write(doc)
	var id UploadID
	h.Sum(id[:0])
	return id
}

// ReportUploadID hashes a report's canonical binary encoding. The encoding
// is a pure function of report content (entries in canonical order, refs in
// first-use order, no dictionary carry-over), so two uploads with the same
// content always collide here — the dedup identity of the durable path. The
// error return is vestigial (the binary encoder cannot fail) and kept for
// call-site stability.
func ReportUploadID(rep *core.Report) (UploadID, error) {
	return ComputeUploadID(core.AppendReportBinary(nil, rep)), nil
}

// ---------------------------------------------------------------------------
// Record framing

const (
	walFrameHeaderLen = 8
	// maxWALRecordLen bounds a frame so a corrupt length field can never
	// drive an allocation; it comfortably exceeds the 8 MiB upload cap.
	maxWALRecordLen = 64 << 20

	recKindHeader   byte = 1
	recKindSnapshot byte = 3
	recKindFragBin  byte = 4 // binary fragment payload; kind 2 (JSON fragments) is retired, never reuse it

	walFormatVersion = 1
)

var walCRCTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame frames payload onto dst: [len][crc32c][payload].
func appendFrame(dst, payload []byte) []byte {
	var hdr [walFrameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, walCRCTable))
	return append(append(dst, hdr[:]...), payload...)
}

// frameError describes why decoding stopped mid-file.
type frameError struct {
	// torn means the file simply ended inside a frame — the signature of
	// a crash mid-append. Anything else (bad CRC with all bytes present,
	// an absurd length) is corruption.
	torn   bool
	reason string
}

func (e *frameError) Error() string {
	kind := "corrupt record"
	if e.torn {
		kind = "torn record"
	}
	return fmt.Sprintf("fleet: wal %s: %s", kind, e.reason)
}

// frameReader decodes frames from r, tracking the byte offset of the
// frame being read so a truncation point is always known.
type frameReader struct {
	r   io.Reader
	off int64 // offset of the next (or currently failing) frame
}

// next returns the next frame payload. io.EOF means a clean end exactly
// at a frame boundary; a *frameError means decoding must stop and the
// file should be truncated at fr.off.
func (fr *frameReader) next() ([]byte, error) {
	var hdr [walFrameHeaderLen]byte
	if _, err := io.ReadFull(fr.r, hdr[:1]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, &frameError{torn: true, reason: "unreadable header byte"}
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		return nil, &frameError{torn: true, reason: "truncated frame header"}
	}
	ln := binary.LittleEndian.Uint32(hdr[0:4])
	if ln == 0 || ln > maxWALRecordLen {
		return nil, &frameError{reason: fmt.Sprintf("implausible record length %d", ln)}
	}
	payload := make([]byte, ln)
	n, err := io.ReadFull(fr.r, payload)
	if err != nil {
		return nil, &frameError{torn: true, reason: fmt.Sprintf("record body short: %d of %d bytes", n, ln)}
	}
	if crc := crc32.Checksum(payload, walCRCTable); crc != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, &frameError{reason: "crc mismatch"}
	}
	fr.off += int64(walFrameHeaderLen) + int64(ln)
	return payload, nil
}

// ---------------------------------------------------------------------------
// Record payloads

// walHeader is the first record of every log file, naming its generation.
type walHeader struct {
	Version int    `json:"version"`
	Shard   int    `json:"shard"`
	Shards  int    `json:"shards"`
	Gen     uint64 `json:"gen"`
}

func encodeHeader(h walHeader) ([]byte, error) {
	body, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	return append([]byte{recKindHeader}, body...), nil
}

// encodeFragment frames a fragment for the log in the binary wire encoding
// (kind 4), which replay decodes allocation-lean.
func encodeFragment(id UploadID, frag *core.Report) ([]byte, error) {
	buf := make([]byte, 0, 512)
	buf = append(buf, recKindFragBin)
	buf = append(buf, id[:]...)
	return core.AppendReportBinary(buf, frag), nil
}

func decodeFragment(payload []byte) (UploadID, *core.Report, error) {
	var id UploadID
	if len(payload) < 1+len(id) || payload[0] != recKindFragBin {
		return id, nil, errors.New("fleet: wal record is not a fragment")
	}
	copy(id[:], payload[1:1+len(id)])
	wr, err := core.NewBinaryDecoder().Decode(payload[1+len(id):])
	if err != nil {
		return id, nil, err
	}
	return id, wr.Report(), nil
}

// walSnapshot is the single record of a snapshot file: the shard's whole
// compacted state, covering every log generation <= Gen.
type walSnapshot struct {
	Version int             `json:"version"`
	Shard   int             `json:"shard"`
	Shards  int             `json:"shards"`
	Gen     uint64          `json:"gen"`
	IDs     []string        `json:"ids"`
	Report  json.RawMessage `json:"report"`
}

// ---------------------------------------------------------------------------
// Dedup window

// dedupSet is a FIFO-bounded set of upload IDs the shard has durably
// applied. Only the owning shard goroutine touches it.
type dedupSet struct {
	set   map[UploadID]struct{}
	order []UploadID
	cap   int
}

func newDedupSet(cap int) *dedupSet {
	return &dedupSet{set: make(map[UploadID]struct{}), cap: cap}
}

func (d *dedupSet) has(id UploadID) bool {
	_, ok := d.set[id]
	return ok
}

func (d *dedupSet) add(id UploadID) {
	if _, ok := d.set[id]; ok {
		return
	}
	d.set[id] = struct{}{}
	d.order = append(d.order, id)
	if len(d.order) > d.cap {
		evict := d.order[0]
		d.order = d.order[1:]
		delete(d.set, evict)
	}
}

// ---------------------------------------------------------------------------
// Per-shard WAL

// shardWAL is one shard's durable state. Single-writer: every method runs
// on the owning shard goroutine only.
type shardWAL struct {
	cfg    *WALConfig
	shard  int
	shards int
	m      *walMetrics

	gen     uint64     // generation of the live log file
	snapGen uint64     // generation covered by the committed snapshot
	wf      fault.File // append handle on the live log
	goodOff int64      // end of the last fully written record
	syncOff int64      // durable watermark (<= goodOff)
	dirty   bool       // bytes beyond goodOff may be garbage (failed write)
	records int        // fragment records appended this generation
	dedup   *dedupSet
}

func (w *shardWAL) logPath() string {
	return filepath.Join(w.cfg.Dir, fmt.Sprintf("shard-%04d.wal", w.shard))
}
func (w *shardWAL) snapPath() string {
	return filepath.Join(w.cfg.Dir, fmt.Sprintf("shard-%04d.snap", w.shard))
}

// ReplayInfo summarizes one shard's recovery for logs and tests.
type ReplayInfo struct {
	Shard         int
	Records       int  // fragment records replayed from the log tail
	FromSnapshot  bool // a snapshot was loaded
	TruncatedTail bool // a torn tail was cut back
	Corrupt       bool // a mid-log corrupt record was detected (prefix salvaged)
}

// openShardWAL recovers shard state from disk: load the snapshot if one
// exists, replay the log tail on top of it (truncating a torn final
// record instead of aborting), rotate the log if the snapshot already
// covers it, and leave an append handle positioned for new records.
func openShardWAL(cfg *WALConfig, shard, shards int, m *walMetrics) (*shardWAL, *core.Report, ReplayInfo, error) {
	start := time.Now()
	w := &shardWAL{cfg: cfg, shard: shard, shards: shards, m: m, dedup: newDedupSet(cfg.DedupWindow)}
	info := ReplayInfo{Shard: shard}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, info, fmt.Errorf("fleet: wal dir: %w", err)
	}

	rep := core.NewReport()
	var snapGen uint64
	snap, err := w.loadSnapshot()
	if err != nil {
		return nil, nil, info, err
	}
	if snap != nil {
		if snap.Shards != shards {
			return nil, nil, info, fmt.Errorf("fleet: wal snapshot for shard %d was written with %d shards, aggregator configured with %d (shard count may not change across recovery)", shard, snap.Shards, shards)
		}
		rep, err = core.ImportReport(bytes.NewReader(snap.Report))
		if err != nil {
			return nil, nil, info, fmt.Errorf("fleet: wal snapshot report for shard %d: %w", shard, err)
		}
		for _, hs := range snap.IDs {
			raw, err := hex.DecodeString(hs)
			if err != nil || len(raw) != len(UploadID{}) {
				return nil, nil, info, fmt.Errorf("fleet: wal snapshot for shard %d has malformed upload id %q", shard, hs)
			}
			var id UploadID
			copy(id[:], raw)
			w.dedup.add(id)
		}
		snapGen = snap.Gen
		info.FromSnapshot = true
	}

	w.snapGen = snapGen
	logGen, err := w.replayLog(snapGen, rep, &info)
	if err != nil {
		return nil, nil, info, err
	}

	// Open the append handle, repairing whatever the replay flagged.
	if err := w.openAppend(); err != nil {
		return nil, nil, info, err
	}
	switch {
	case logGen == 0:
		// Empty or brand-new log: stamp it with the next generation.
		if err := w.rotate(snapGen + 1); err != nil {
			return nil, nil, info, err
		}
	case logGen <= snapGen:
		// Crash landed between snapshot commit and log rotation: the
		// snapshot already covers every record here, so rotate now.
		if err := w.rotate(snapGen + 1); err != nil {
			return nil, nil, info, err
		}
	default:
		w.gen = logGen
	}
	m.replayLatency.Observe(float64(time.Since(start).Nanoseconds()))
	return w, rep, info, nil
}

// loadSnapshot reads and validates the snapshot file; a missing file is
// (nil, nil). A snapshot is committed atomically by rename, so a torn one
// cannot exist; an unreadable or corrupt one is a hard error — the log
// records it compacted are gone, and inventing an empty state would
// silently drop acknowledged uploads.
func (w *shardWAL) loadSnapshot() (*walSnapshot, error) {
	f, err := w.cfg.FS.OpenFile(w.snapPath(), os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("fleet: wal snapshot open: %w", err)
	}
	defer f.Close()
	fr := &frameReader{r: bufio.NewReaderSize(readerOnly{f}, 1<<16)}
	payload, err := fr.next()
	if err != nil {
		return nil, fmt.Errorf("fleet: wal snapshot for shard %d unreadable (refusing to drop compacted state): %w", w.shard, err)
	}
	if len(payload) < 1 || payload[0] != recKindSnapshot {
		return nil, fmt.Errorf("fleet: wal snapshot for shard %d has record kind %d, want snapshot", w.shard, payload[0])
	}
	var snap walSnapshot
	if err := json.Unmarshal(payload[1:], &snap); err != nil {
		return nil, fmt.Errorf("fleet: wal snapshot for shard %d: %w", w.shard, err)
	}
	if snap.Version != walFormatVersion {
		return nil, fmt.Errorf("fleet: wal snapshot for shard %d has version %d, want %d", w.shard, snap.Version, walFormatVersion)
	}
	if snap.Shard != w.shard {
		return nil, fmt.Errorf("fleet: wal snapshot names shard %d, expected %d", snap.Shard, w.shard)
	}
	return &snap, nil
}

// readerOnly hides everything but Read so bufio never sees other methods.
type readerOnly struct{ f fault.File }

func (r readerOnly) Read(p []byte) (int, error) { return r.f.Read(p) }

// replayLog scans the log file, merging fragment records newer than
// snapGen into rep and rebuilding the dedup window. It returns the log's
// generation (0 when the file is missing or empty/headerless). A torn or
// corrupt frame ends the scan: goodOff marks the salvaged prefix and
// dirty is set so the tail is truncated before the next append.
func (w *shardWAL) replayLog(snapGen uint64, rep *core.Report, info *ReplayInfo) (uint64, error) {
	f, err := w.cfg.FS.OpenFile(w.logPath(), os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("fleet: wal log open: %w", err)
	}
	defer f.Close()

	fr := &frameReader{r: bufio.NewReaderSize(readerOnly{f}, 1<<16)}
	stop := func(fe *frameError) {
		w.goodOff = fr.off
		w.dirty = true
		info.TruncatedTail = true
		w.m.truncatedTails.Inc()
		if !fe.torn {
			info.Corrupt = true
			w.m.corruptRecords.Inc()
		}
	}

	payload, err := fr.next()
	if err == io.EOF {
		return 0, nil
	}
	if err != nil {
		var fe *frameError
		if errors.As(err, &fe) {
			// Even the header is torn: scrap the whole file.
			stop(fe)
			return 0, nil
		}
		return 0, err
	}
	if len(payload) < 1 || payload[0] != recKindHeader {
		stop(&frameError{reason: "first record is not a log header"})
		return 0, nil
	}
	var hdr walHeader
	if err := json.Unmarshal(payload[1:], &hdr); err != nil {
		stop(&frameError{reason: "undecodable log header"})
		return 0, nil
	}
	if hdr.Version != walFormatVersion || hdr.Shard != w.shard {
		return 0, fmt.Errorf("fleet: wal log header mismatch for shard %d: %+v", w.shard, hdr)
	}
	if hdr.Shards != w.shards {
		return 0, fmt.Errorf("fleet: wal log for shard %d was written with %d shards, aggregator configured with %d (shard count may not change across recovery)", w.shard, hdr.Shards, w.shards)
	}
	w.goodOff = fr.off
	apply := hdr.Gen > snapGen

	for {
		payload, err := fr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			var fe *frameError
			if errors.As(err, &fe) {
				stop(fe)
				break
			}
			return 0, err
		}
		id, frag, derr := decodeFragment(payload)
		if derr != nil {
			// The frame passed its CRC but the payload is gibberish:
			// corruption (or version drift). Salvage the prefix.
			stop(&frameError{reason: derr.Error()})
			break
		}
		if apply {
			rep.Merge(frag)
			w.dedup.add(id)
			info.Records++
			w.m.replayed.Inc()
			w.records++
		}
		w.goodOff = fr.off
	}
	return hdr.Gen, nil
}

// openAppend opens (creating if needed) the append handle on the log.
func (w *shardWAL) openAppend() error {
	f, err := w.cfg.FS.OpenFile(w.logPath(), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("fleet: wal log append open: %w", err)
	}
	w.wf = f
	w.syncOff = w.goodOff
	return nil
}

// repair truncates garbage beyond goodOff (a failed or torn write, or a
// salvaged replay) so the next record lands on a clean tail.
func (w *shardWAL) repair() error {
	if !w.dirty {
		return nil
	}
	if err := w.wf.Truncate(w.goodOff); err != nil {
		return fmt.Errorf("fleet: wal tail repair: %w", err)
	}
	w.dirty = false
	return nil
}

// append frames payload onto the log. On failure the record is not
// durable, the tail is flagged for repair, and the caller must not ack.
func (w *shardWAL) append(payload []byte) error {
	if w.wf == nil || w.gen <= w.snapGen {
		// A compaction committed its snapshot but the log rotation failed
		// (possibly leaving no append handle at all). Appending to a
		// generation the snapshot already covers would be silently skipped
		// at replay, so reestablish a fresh generation first.
		if err := w.rotate(w.snapGen + 1); err != nil {
			w.m.appendErrors.Inc()
			return err
		}
	}
	if err := w.repair(); err != nil {
		w.m.appendErrors.Inc()
		return err
	}
	frame := appendFrame(nil, payload)
	n, err := w.wf.Write(frame)
	if err != nil {
		if n > 0 {
			w.dirty = true
		}
		w.m.appendErrors.Inc()
		return fmt.Errorf("fleet: wal append: %w", err)
	}
	if n != len(frame) {
		w.dirty = true
		w.m.appendErrors.Inc()
		return fmt.Errorf("fleet: wal append: short write %d of %d bytes", n, len(frame))
	}
	w.goodOff += int64(len(frame))
	w.records++
	w.m.appended.Inc()
	w.m.bytesWritten.Add(int64(len(frame)))
	return nil
}

// barrier makes everything appended so far durable per the sync policy.
// On failure it rolls the log back to the last durable watermark; the
// caller must nack (and must not merge) every record past it.
func (w *shardWAL) barrier() error {
	if w.cfg.Sync == SyncOff {
		w.syncOff = w.goodOff
		return nil
	}
	if err := w.wf.Sync(); err != nil {
		// The unsynced suffix may or may not have hit the platter; roll
		// back so the on-disk log only ever contains acknowledged state.
		if terr := w.wf.Truncate(w.syncOff); terr != nil {
			w.dirty = true
		}
		w.goodOff = w.syncOff
		w.m.appendErrors.Inc()
		return fmt.Errorf("fleet: wal sync: %w", err)
	}
	w.m.fsyncs.Inc()
	w.syncOff = w.goodOff
	return nil
}

// writeFileAtomic writes a fully framed file (tmp + fsync + rename).
func (w *shardWAL) writeFileAtomic(path string, frame []byte) error {
	tmp := path + ".tmp"
	f, err := w.cfg.FS.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		w.cfg.FS.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		w.cfg.FS.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		w.cfg.FS.Remove(tmp)
		return err
	}
	return w.cfg.FS.Rename(tmp, path)
}

// rotate atomically replaces the log with a fresh one at generation gen.
func (w *shardWAL) rotate(gen uint64) error {
	payload, err := encodeHeader(walHeader{Version: walFormatVersion, Shard: w.shard, Shards: w.shards, Gen: gen})
	if err != nil {
		return err
	}
	frame := appendFrame(nil, payload)
	if w.wf != nil {
		w.wf.Close()
		w.wf = nil
	}
	if err := w.writeFileAtomic(w.logPath(), frame); err != nil {
		return fmt.Errorf("fleet: wal rotate: %w", err)
	}
	if err := w.openAppend(); err != nil {
		return err
	}
	w.gen = gen
	w.goodOff = int64(len(frame))
	w.syncOff = w.goodOff
	w.dirty = false
	w.records = 0
	return nil
}

// compact folds the shard's entire in-memory state into the snapshot file
// and rotates the log. A failure before the snapshot commit leaves the old
// snapshot and log intact (compaction is all-or-nothing) and the shard
// keeps appending to the old generation; a failure after the commit marks
// the covered generation via snapGen so the next append rotates past it.
func (w *shardWAL) compact(rep *core.Report) error {
	var repBuf bytes.Buffer
	if err := rep.Export(&repBuf); err != nil {
		return fmt.Errorf("fleet: wal compact export: %w", err)
	}
	ids := make([]string, 0, len(w.dedup.order))
	for _, id := range w.dedup.order {
		ids = append(ids, id.String())
	}
	body, err := json.Marshal(walSnapshot{
		Version: walFormatVersion, Shard: w.shard, Shards: w.shards,
		Gen: w.gen, IDs: ids, Report: json.RawMessage(repBuf.Bytes()),
	})
	if err != nil {
		return fmt.Errorf("fleet: wal compact: %w", err)
	}
	frame := appendFrame(nil, append([]byte{recKindSnapshot}, body...))
	if err := w.writeFileAtomic(w.snapPath(), frame); err != nil {
		return fmt.Errorf("fleet: wal compact snapshot: %w", err)
	}
	// The snapshot is committed: it covers every log generation <= w.gen.
	// Record that before rotating, so if the rotation fails the next
	// append knows it must not land in a covered generation.
	w.snapGen = w.gen
	if err := w.rotate(w.gen + 1); err != nil {
		return err
	}
	w.m.compactions.Inc()
	return nil
}

// close releases the append handle without any final barrier — the crash
// path. The clean-shutdown path runs compact first.
func (w *shardWAL) close() {
	if w.wf != nil {
		w.wf.Close()
		w.wf = nil
	}
}
