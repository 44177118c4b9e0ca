package fleet

// wal.go is the durability layer of the aggregator: one append-only node
// log and one snapshot file, owned by the committer goroutine. Because only
// that goroutine ever touches them, the layer is lock-free by construction.
//
// On-disk layout (inside WALConfig.Dir):
//
//	node.wal    length+CRC-framed records: one header record naming the
//	            log generation, then one record per durably accepted
//	            upload — its UploadID followed by its canonical binary
//	            document
//	node.snap   one framed snapshot record: the node's compacted report
//	            plus its dedup window, tagged with the log generation it
//	            covers
//	*.tmp       in-flight snapshot/rotation files (crash debris, replaced
//	            atomically by rename)
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
// Exactly-once across crash/resend: a record is a whole upload, so an
// upload is durable all at once or not at all, and its record carries the
// upload's 128-bit content hash. Replay rebuilds the dedup window from the
// snapshot and the tail, so when a client resends an upload whose ack never
// came, the committer finds it in the window and acks it without logging or
// merging it again — the recovered fold is byte-identical to a run that
// never crashed. Records do not depend on the shard count, so replay
// re-splits them for whatever count the aggregator is opened with.

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
	"strings"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fault"
)

// SyncPolicy says when an append becomes durable (and hence when a
// durable submit may be acknowledged).
type SyncPolicy string

const (
	// SyncAlways fsyncs after every upload record. Strongest, slowest.
	SyncAlways SyncPolicy = "always"
	// SyncBatch fsyncs once per committer batch (group commit): every ack
	// waits for the barrier, but the barrier is amortized across the
	// uploads of the batch. The default.
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
	// Dir holds the node's log and snapshot files.
	Dir string
	// Sync is the durability barrier policy (default SyncBatch).
	Sync SyncPolicy
	// CompactEvery sets how often the node log is compacted into its
	// snapshot: after CompactEvery × Shards appended records, the volume
	// the per-shard logs of earlier releases held between them (default
	// 4096).
	CompactEvery int
	// DedupWindow caps the remembered upload IDs, FIFO-evicted (default
	// 65536). Resends arriving within the window are exactly-once; the
	// window only needs to outlast a client's retry horizon.
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
	// recKindUpload is one whole upload: its ID, then its canonical binary
	// document. Kinds 2 and 4 (per-shard fragments) are retired; never
	// reuse them.
	recKindUpload byte = 5

	// walFormatVersion 2 is the node log; version 1 was per-shard logs.
	walFormatVersion = 2

	nodeLogName  = "node.wal"
	nodeSnapName = "node.snap"
)

var walCRCTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame frames payload onto dst: [len][crc32c][payload].
func appendFrame(dst, payload []byte) []byte {
	var hdr [walFrameHeaderLen]byte
	putFrameHeader(hdr[:], payload)
	return append(append(dst, hdr[:]...), payload...)
}

// putFrameHeader writes payload's [len][crc32c] frame header into hdr.
func putFrameHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, walCRCTable))
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
	Gen     uint64 `json:"gen"`
}

func encodeHeader(h walHeader) ([]byte, error) {
	body, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	return append([]byte{recKindHeader}, body...), nil
}

// uploadRecord encodes rep once, as the framed log record of one upload:
// [len][crc32c][kind][id][canonical binary document]. A zero id becomes
// the hash of that document — the bytes ReportUploadID hashes. Submitters
// call it on their own goroutines, so the committer only writes.
func uploadRecord(rep *core.Report, id UploadID) ([]byte, UploadID) {
	const docOff = walFrameHeaderLen + 1 + len(UploadID{})
	buf := make([]byte, docOff, docOff+512)
	buf[walFrameHeaderLen] = recKindUpload
	buf = core.AppendReportBinary(buf, rep)
	if id == (UploadID{}) {
		id = ComputeUploadID(buf[docOff:])
	}
	copy(buf[walFrameHeaderLen+1:], id[:])
	putFrameHeader(buf[:walFrameHeaderLen], buf[walFrameHeaderLen:])
	return buf, id
}

// decodeRecord parses an upload record's payload.
func decodeRecord(payload []byte) (UploadID, *core.WireReport, error) {
	var id UploadID
	if len(payload) < 1+len(id) || payload[0] != recKindUpload {
		return id, nil, errors.New("fleet: wal record is not an upload")
	}
	copy(id[:], payload[1:1+len(id)])
	wr, err := core.NewBinaryDecoder().Decode(payload[1+len(id):])
	return id, wr, err
}

// walSnapshot is the single record of a snapshot file: the node's whole
// compacted state, covering every log generation <= Gen.
type walSnapshot struct {
	Version int             `json:"version"`
	Gen     uint64          `json:"gen"`
	IDs     []string        `json:"ids"`
	Report  json.RawMessage `json:"report"`
}

// ---------------------------------------------------------------------------
// Dedup window

// dedupSet is a FIFO-bounded set of upload IDs the node has durably
// applied. Only the committer goroutine touches it.
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
// Node WAL

// nodeWAL is the node's durable state. Single-writer: after recovery every
// method runs on the committer goroutine only.
type nodeWAL struct {
	cfg *WALConfig
	m   *walMetrics

	gen     uint64     // generation of the live log file
	snapGen uint64     // generation covered by the committed snapshot
	wf      fault.File // append handle on the live log
	goodOff int64      // end of the last fully written record
	syncOff int64      // durable watermark (<= goodOff)
	dirty   bool       // bytes beyond goodOff may be garbage (failed write)
	records int        // upload records appended this generation
	dedup   *dedupSet
}

func (w *nodeWAL) logPath() string  { return filepath.Join(w.cfg.Dir, nodeLogName) }
func (w *nodeWAL) snapPath() string { return filepath.Join(w.cfg.Dir, nodeSnapName) }

// openNodeWAL recovers the node's state from disk: load the snapshot if
// one exists, replay the log tail on top of it (truncating a torn final
// record instead of aborting), rotate the log if the snapshot already
// covers it, and leave an append handle positioned for new records.
func openNodeWAL(cfg *WALConfig, m *walMetrics) (*nodeWAL, *core.Report, error) {
	start := time.Now()
	if err := refuseShardLayout(cfg.Dir); err != nil {
		return nil, nil, err
	}
	w := &nodeWAL{cfg: cfg, m: m, dedup: newDedupSet(cfg.DedupWindow)}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("fleet: wal dir: %w", err)
	}

	rep := core.NewReport()
	snap, err := w.loadSnapshot()
	if err != nil {
		return nil, nil, err
	}
	if snap != nil {
		rep, err = core.ImportReport(bytes.NewReader(snap.Report))
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: wal snapshot report: %w", err)
		}
		for _, hs := range snap.IDs {
			raw, err := hex.DecodeString(hs)
			if err != nil || len(raw) != len(UploadID{}) {
				return nil, nil, fmt.Errorf("fleet: wal snapshot has malformed upload id %q", hs)
			}
			var id UploadID
			copy(id[:], raw)
			w.dedup.add(id)
		}
		w.snapGen = snap.Gen
	}

	logGen, err := w.replayLog(rep)
	if err != nil {
		return nil, nil, err
	}

	// Open the append handle, repairing whatever the replay flagged.
	if err := w.openAppend(); err != nil {
		return nil, nil, err
	}
	if logGen <= w.snapGen {
		// An empty or brand-new log, or a crash between snapshot commit
		// and log rotation (the snapshot already covers every record
		// here): stamp a fresh log with the next generation.
		if err := w.rotate(w.snapGen + 1); err != nil {
			return nil, nil, err
		}
	} else {
		w.gen = logGen
	}
	m.replayLatency.Observe(float64(time.Since(start).Nanoseconds()))
	return w, rep, nil
}

// refuseShardLayout fails when dir holds the per-shard logs of an earlier
// release. A node log started beside them would silently drop every upload
// they acknowledged. The FS seam has no directory listing, so this reads
// the directory itself; it writes nothing.
func refuseShardLayout(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("fleet: wal dir: %w", err)
	}
	var old []string
	for _, e := range ents {
		wal, _ := filepath.Match("shard-*.wal", e.Name())
		snap, _ := filepath.Match("shard-*.snap", e.Name())
		if wal || snap {
			old = append(old, e.Name())
		}
	}
	if len(old) > 0 {
		return fmt.Errorf("fleet: wal dir %s holds per-shard logs of an older format (%s); this release keeps one node log and cannot read them",
			dir, strings.Join(old, ", "))
	}
	return nil
}

// loadSnapshot reads and validates the snapshot file; a missing file is
// (nil, nil). A snapshot is committed atomically by rename, so a torn one
// cannot exist; an unreadable or corrupt one is a hard error — the log
// records it compacted are gone, and inventing an empty state would
// silently drop acknowledged uploads.
func (w *nodeWAL) loadSnapshot() (*walSnapshot, error) {
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
		return nil, fmt.Errorf("fleet: wal snapshot unreadable (refusing to drop compacted state): %w", err)
	}
	if len(payload) < 1 || payload[0] != recKindSnapshot {
		return nil, fmt.Errorf("fleet: wal snapshot has record kind %d, want snapshot", payload[0])
	}
	var snap walSnapshot
	if err := json.Unmarshal(payload[1:], &snap); err != nil {
		return nil, fmt.Errorf("fleet: wal snapshot: %w", err)
	}
	if snap.Version != walFormatVersion {
		return nil, fmt.Errorf("fleet: wal snapshot has version %d, want %d", snap.Version, walFormatVersion)
	}
	return &snap, nil
}

// readerOnly hides everything but Read so bufio never sees other methods.
type readerOnly struct{ f fault.File }

func (r readerOnly) Read(p []byte) (int, error) { return r.f.Read(p) }

// replayLog scans the log file, merging upload records newer than the
// snapshot into rep and rebuilding the dedup window. It returns the log's
// generation (0 when the file is missing or empty/headerless). A torn or
// corrupt frame ends the scan: goodOff marks the salvaged prefix and
// dirty is set so the tail is truncated before the next append.
func (w *nodeWAL) replayLog(rep *core.Report) (uint64, error) {
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
		w.m.truncatedTails.Inc()
		if !fe.torn {
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
	if hdr.Version != walFormatVersion {
		return 0, fmt.Errorf("fleet: wal log has version %d, want %d", hdr.Version, walFormatVersion)
	}
	w.goodOff = fr.off
	apply := hdr.Gen > w.snapGen

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
		id, wr, derr := decodeRecord(payload)
		if derr != nil {
			// The frame passed its CRC but the payload is gibberish:
			// corruption (or version drift). Salvage the prefix.
			stop(&frameError{reason: derr.Error()})
			break
		}
		if apply {
			rep.MergeWire(wr)
			w.dedup.add(id)
			w.m.replayed.Inc()
			w.records++
		}
		w.goodOff = fr.off
	}
	return hdr.Gen, nil
}

// openAppend opens (creating if needed) the append handle on the log.
func (w *nodeWAL) openAppend() error {
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
func (w *nodeWAL) repair() error {
	if !w.dirty {
		return nil
	}
	if err := w.wf.Truncate(w.goodOff); err != nil {
		return fmt.Errorf("fleet: wal tail repair: %w", err)
	}
	w.dirty = false
	return nil
}

// append writes one framed record onto the log. On failure the record is
// not durable, the tail is flagged for repair, and the caller must not ack.
func (w *nodeWAL) append(frame []byte) error {
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
func (w *nodeWAL) barrier() error {
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
func (w *nodeWAL) writeFileAtomic(path string, frame []byte) error {
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
func (w *nodeWAL) rotate(gen uint64) error {
	payload, err := encodeHeader(walHeader{Version: walFormatVersion, Gen: gen})
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

// compact writes rep — exactly the state the log's records built — as the
// snapshot and rotates the log. A failure before the snapshot commit
// leaves the old snapshot and log intact (compaction is all-or-nothing)
// and the committer keeps appending to the old generation; a failure after
// the commit marks the covered generation via snapGen so the next append
// rotates past it.
func (w *nodeWAL) compact(rep *core.Report) error {
	var repBuf bytes.Buffer
	if err := rep.Export(&repBuf); err != nil {
		return fmt.Errorf("fleet: wal compact export: %w", err)
	}
	ids := make([]string, 0, len(w.dedup.order))
	for _, id := range w.dedup.order {
		ids = append(ids, id.String())
	}
	body, err := json.Marshal(walSnapshot{
		Version: walFormatVersion, Gen: w.gen, IDs: ids, Report: json.RawMessage(repBuf.Bytes()),
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
// path. The clean-shutdown path compacts first.
func (w *nodeWAL) close() {
	if w.wf != nil {
		w.wf.Close()
		w.wf = nil
	}
}
