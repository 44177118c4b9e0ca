package fleet

// wal.go is the durability layer of the aggregator: one append-only node
// log, owned by the committer goroutine. Because only that goroutine ever
// touches it, the layer is lock-free by construction.
//
// On-disk layout (inside WALConfig.Dir):
//
//	node.wal      length+CRC-framed records: one base record, the node's
//	              compacted state, then one record per durably accepted
//	              upload
//	node.wal.tmp  an in-flight compaction (crash debris, replaced
//	              atomically by rename)
//
// Record framing is [len uint32le][crc32c uint32le][payload]; the payload
// starts with a one-byte kind and is 1 to maxWALRecordLen bytes long. The
// writer applies the same bound as the reader, so it never commits a
// record that recovery would call corrupt. A base (kind 6) is a uvarint
// count, that many 16-byte upload IDs (the dedup window, oldest first),
// then the fold's canonical binary document: the bytes /v1/snapshot
// serves for that fold. An upload (kind 5) is its UploadID, then its
// canonical binary document. Replay decodes both the same way. An upload
// record whose bytes are all there but fail their CRC or decode (bit rot)
// is counted and skipped by its length. A torn tail (crash mid-append) or
// a length out of bounds ends the scan instead: recovery truncates the
// file back to the end of the last record it applied and carries on — it
// never aborts. A base that cannot be read is a hard error: the records
// it compacted are gone.
//
// Compaction writes a one-record log holding the base to node.wal.tmp,
// fsyncs it, renames it over node.wal (the atomic commit point) and
// fsyncs the directory, so that the rename survives a power loss; the
// handle that wrote the base becomes the append handle. There are no
// generations: the log is the snapshot plus what came after it. A failed
// directory sync is retried by the next barrier, which acknowledges
// nothing until it succeeds.
//
// Exactly-once across crash/resend: a record is a whole upload, so an
// upload is durable all at once or not at all, and its record carries the
// upload's 128-bit content hash. Replay rebuilds the dedup window from the
// base and the tail, so when a client resends an upload whose ack never
// came, the committer finds it in the window and acks it without logging or
// merging it again — the recovered fold is byte-identical to a run that
// never crashed. Records do not depend on the shard count or on which
// shard an entry went to: replay routes each upload again, for whatever
// count the aggregator is opened with, by this process's hash.

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
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
	// Dir holds the node's log.
	Dir string
	// Sync is the durability barrier policy (default SyncBatch).
	Sync SyncPolicy
	// CompactEvery sets how often the node log is compacted into one
	// base record: after CompactEvery × Shards appended records, the
	// volume the per-shard logs of earlier releases held between them
	// (default 4096).
	CompactEvery int
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
	// drive an allocation. An upload under the 8 MiB body cap can still
	// exceed it: a binary upload may reference strings its device sent
	// earlier, which its record spells out in full.
	maxWALRecordLen = 64 << 20

	// Record kinds; the file comment gives their layouts. A new layout
	// takes a new kind. Kinds 1 and 3 (the JSON log header and snapshot of
	// earlier releases) and 2 and 4 (per-shard fragments) are retired;
	// never reuse them.
	recKindUpload byte = 5
	recKindBase   byte = 6

	nodeLogName = "node.wal"
)

var walCRCTable = crc32.MakeTable(crc32.Castagnoli)

// recordLenError applies the frame bound. The reader refuses a frame
// outside it as corrupt, so the writer must refuse to write one.
func recordLenError(n int64) error {
	if n <= 0 || n > maxWALRecordLen {
		return fmt.Errorf("record length %d outside 1..%d", n, maxWALRecordLen)
	}
	return nil
}

// putFrameHeader writes payload's [len][crc32c] frame header into hdr.
func putFrameHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, walCRCTable))
}

// frameError describes a frame that failed to decode.
type frameError struct {
	// torn means the file simply ended inside a frame — the signature of
	// a crash mid-append. Anything else (bad CRC with all bytes present,
	// an absurd length) is corruption.
	torn bool
	// whole means every byte the frame's length claims was read, and it
	// failed its CRC, so the reader has moved past it and may go on.
	whole  bool
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
// at a frame boundary. A *frameError that is not whole means decoding
// must stop at fr.off; a whole one leaves fr.off past the bad frame.
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
	if err := recordLenError(int64(ln)); err != nil {
		return nil, &frameError{reason: err.Error()}
	}
	payload := make([]byte, ln)
	n, err := io.ReadFull(fr.r, payload)
	if err != nil {
		return nil, &frameError{torn: true, reason: fmt.Sprintf("record body short: %d of %d bytes", n, ln)}
	}
	fr.off += int64(walFrameHeaderLen) + int64(ln)
	if crc := crc32.Checksum(payload, walCRCTable); crc != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, &frameError{whole: true, reason: "crc mismatch"}
	}
	return payload, nil
}

// ---------------------------------------------------------------------------
// Record payloads

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

// baseRecord encodes rep and the dedup window ids as the framed base
// record: [len][crc32c][kind][uvarint count][count × id][canonical binary
// document].
func baseRecord(rep *core.Report, ids []UploadID) []byte {
	buf := make([]byte, walFrameHeaderLen, walFrameHeaderLen+1+binary.MaxVarintLen64+len(ids)*len(UploadID{}))
	buf = append(buf, recKindBase)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = append(buf, id[:]...)
	}
	buf = core.AppendReportBinary(buf, rep)
	putFrameHeader(buf[:walFrameHeaderLen], buf[walFrameHeaderLen:])
	return buf
}

// decodeRecord parses a record payload of kind want into its upload IDs
// (an upload's own, or a base's dedup window), decoding its document into
// the caller's view. The bytes come from disk, so the ID count is checked
// against what is there.
func decodeRecord(payload []byte, want byte, into *core.WireReport) ([]UploadID, error) {
	if len(payload) == 0 || payload[0] != want {
		return nil, fmt.Errorf("fleet: wal record is not of kind %d", want)
	}
	body, n := payload[1:], uint64(1)
	if want == recKindBase {
		var k int
		if n, k = binary.Uvarint(body); k <= 0 {
			return nil, errors.New("fleet: wal base has a malformed id count")
		}
		body = body[k:]
	}
	if n > uint64(len(body)/len(UploadID{})) {
		return nil, fmt.Errorf("fleet: wal record claims %d upload ids in %d bytes", n, len(body))
	}
	ids := make([]UploadID, n)
	for i := range ids {
		body = body[copy(ids[i][:], body):]
	}
	return ids, core.NewBinaryDecoder().Decode(body, into)
}

// ---------------------------------------------------------------------------
// Dedup window

// dedupWindow caps the remembered upload IDs, FIFO-evicted. Resends
// arriving within the window are exactly-once; the window only needs to
// outlast a client's retry horizon.
const dedupWindow = 65536

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

	wf      fault.File // append handle on the log
	goodOff int64      // end of the last fully written record
	syncOff int64      // durable watermark (<= goodOff)
	dirty   bool       // bytes beyond goodOff may be garbage (failed write)
	// dirPending: the last rename onto the log is not durable yet, so the
	// next barrier must sync the directory before it may succeed.
	dirPending bool
	records    int // upload records behind the base
	dedup      *dedupSet
}

func (w *nodeWAL) logPath() string { return filepath.Join(w.cfg.Dir, nodeLogName) }

// openNodeWAL recovers the node's state from disk: it hands the base and
// every upload record behind it to apply, in log order (truncating a torn
// final record instead of aborting), or commits a base of the empty state
// when there is no log yet, and leaves an append handle positioned for new
// records.
func openNodeWAL(cfg *WALConfig, m *walMetrics, apply func(*core.WireReport)) (*nodeWAL, error) {
	start := time.Now()
	if err := refuseOldLayout(cfg.Dir); err != nil {
		return nil, err
	}
	w := &nodeWAL{cfg: cfg, m: m, dedup: newDedupSet(dedupWindow)}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: wal dir: %w", err)
	}
	based, err := w.replay(apply)
	switch {
	case err != nil:
	case based:
		err = w.openAppend()
	default:
		err = w.compact(core.NewReport()) // no log yet: start one holding the empty state
	}
	if err != nil {
		w.close()
		return nil, err
	}
	m.replayLatency.Observe(float64(time.Since(start).Nanoseconds()))
	return w, nil
}

// refuseOldLayout fails when dir holds the files of an earlier release:
// per-shard logs, or a node snapshot. A node log started beside them would
// silently drop every upload they acknowledged. The FS seam has no
// directory listing, so this reads the directory itself; it writes
// nothing. (A node.wal of an earlier release is refused by replay: it
// opens with a JSON header, not a base.)
func refuseOldLayout(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("fleet: wal dir: %w", err)
	}
	var old []string
	for _, e := range ents {
		wal, _ := filepath.Match("shard-*.wal", e.Name())
		snap, _ := filepath.Match("shard-*.snap", e.Name())
		if wal || snap || e.Name() == "node.snap" {
			old = append(old, e.Name())
		}
	}
	if len(old) > 0 {
		return fmt.Errorf("fleet: wal dir %s holds files of an older format (%s); this release keeps one node log and cannot read them",
			dir, strings.Join(old, ", "))
	}
	return nil
}

// readerOnly hides everything but Read so bufio never sees other methods.
type readerOnly struct{ f fault.File }

func (r readerOnly) Read(p []byte) (int, error) { return r.f.Read(p) }

// replay hands the log's records to apply and rebuilds the dedup window:
// the base, then every upload record behind it. It reports false when the
// log is missing or empty. A log that does not open with a readable base
// is a hard error: the records a base compacted are gone, and inventing an
// empty state would silently drop acknowledged uploads. An upload record
// read whole that fails its CRC or decode is counted and skipped. A torn
// record or an out-of-bounds length ends the scan, and dirty is set so the
// log is truncated back to goodOff, the end of the last record applied,
// before the next append. A length rotted within bounds can send a skip
// into the middle of a record; the scan then ends in the garbage, and the
// truncation drops it. apply merges each record before the next is read,
// so every record decodes into one view.
func (w *nodeWAL) replay(apply func(*core.WireReport)) (bool, error) {
	f, err := w.cfg.FS.OpenFile(w.logPath(), os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, fmt.Errorf("fleet: wal log open: %w", err)
	}
	defer f.Close()

	fr := &frameReader{r: bufio.NewReaderSize(readerOnly{f}, 1<<16)}
	var view core.WireReport
	for kind := recKindBase; ; kind = recKindUpload {
		payload, err := fr.next()
		if err == io.EOF {
			w.goodOff = fr.off
			return kind == recKindUpload, nil
		}
		var ids []UploadID
		if err == nil {
			ids, err = decodeRecord(payload, kind, &view)
		}
		if err != nil && kind == recKindBase {
			return false, fmt.Errorf("fleet: wal %s does not open with a readable base record (a log of an older format opens with a kind-1 JSON header); refusing to drop the state it holds: %w",
				w.logPath(), err)
		}
		if err != nil {
			// A frame that ends at EOF is a crash mid-append; one whose
			// bytes are all there but fail their CRC, length bound or
			// decode is corruption. A whole frame is skipped; any other
			// failure ends the scan.
			var fe *frameError
			ended := errors.As(err, &fe) && !fe.whole
			if fe == nil || !fe.torn {
				w.m.corruptRecords.Inc()
			}
			if !ended {
				continue
			}
			w.m.truncatedTails.Inc()
			w.dirty = true
			return true, nil
		}
		apply(&view)
		for _, id := range ids {
			w.dedup.add(id)
		}
		if kind == recKindUpload {
			w.m.replayed.Inc()
			w.records++
		}
		w.goodOff = fr.off
	}
}

// openAppend opens the append handle on the log.
func (w *nodeWAL) openAppend() error {
	f, err := w.cfg.FS.OpenFile(w.logPath(), os.O_WRONLY|os.O_APPEND, 0o644)
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
// A record beyond the frame bound is refused with ErrRecordTooLarge and
// nothing written.
func (w *nodeWAL) append(frame []byte) error {
	if err := recordLenError(int64(len(frame) - walFrameHeaderLen)); err != nil {
		w.m.appendErrors.Inc()
		return fmt.Errorf("%w: %w", ErrRecordTooLarge, err)
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

// barrier makes everything appended so far durable per the sync policy,
// the rename that made the log the log included. On failure it rolls the
// log back to the last durable watermark; the caller must nack (and must
// not merge) every record past it.
func (w *nodeWAL) barrier() error {
	if w.cfg.Sync == SyncOff {
		w.syncOff = w.goodOff
		return nil
	}
	err := w.wf.Sync()
	if err == nil {
		w.m.fsyncs.Inc()
		err = w.syncDir()
	}
	if err != nil {
		// The unsynced suffix may or may not survive a power loss, and
		// while the rename is not durable neither is the file it sits in.
		// Roll back so the log only ever contains acknowledged state.
		if terr := w.wf.Truncate(w.syncOff); terr != nil {
			w.dirty = true
		}
		w.goodOff = w.syncOff
		w.m.appendErrors.Inc()
		return fmt.Errorf("fleet: wal sync: %w", err)
	}
	w.syncOff = w.goodOff
	return nil
}

// syncDir fsyncs the WAL directory if the last rename onto the log is not
// durable yet. It is not a barrier: hangdoctor_fleet_wal_fsyncs_total
// counts only the log's.
func (w *nodeWAL) syncDir() error {
	if !w.dirPending {
		return nil
	}
	d, err := w.cfg.FS.OpenFile(w.cfg.Dir, os.O_RDONLY, 0)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("fleet: wal dir sync: %w", err)
	}
	w.dirPending = false
	return nil
}

// compact replaces the log with one base record holding rep — exactly the
// state the log's records built — and the dedup window.
func (w *nodeWAL) compact(rep *core.Report) error {
	return w.commitBase(baseRecord(rep, w.dedup.order))
}

// commitBase makes frame, a framed base record, the whole log: tmp + fsync
// + rename, the commit point, then a directory sync (skipped under
// SyncOff). The handle that wrote the base becomes the append handle. A
// failure before the rename, a base beyond the frame bound included,
// leaves the old log and its handle in place, so the committer keeps
// appending to it; a failed directory sync leaves the new log in place,
// and the next barrier retries the sync.
func (w *nodeWAL) commitBase(frame []byte) error {
	if err := recordLenError(int64(len(frame) - walFrameHeaderLen)); err != nil {
		return fmt.Errorf("fleet: wal compact: %w", err)
	}
	tmp := w.logPath() + ".tmp"
	f, err := w.cfg.FS.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("fleet: wal compact: %w", err)
	}
	if _, err = f.Write(frame); err == nil {
		if err = f.Sync(); err == nil {
			err = w.cfg.FS.Rename(tmp, w.logPath())
		}
	}
	if err != nil {
		f.Close()
		w.cfg.FS.Remove(tmp)
		return fmt.Errorf("fleet: wal compact: %w", err)
	}
	w.close()
	w.wf = f
	w.goodOff = int64(len(frame))
	w.syncOff = w.goodOff
	w.dirty = false
	w.records = 0
	w.dirPending = w.cfg.Sync != SyncOff
	return w.syncDir()
}

// close releases the append handle without any final barrier — the crash
// path. The clean-shutdown path compacts first.
func (w *nodeWAL) close() {
	if w.wf != nil {
		w.wf.Close()
		w.wf = nil
	}
}
