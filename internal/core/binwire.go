package core

// binwire.go is the compact binary report encoding the fleet ingestion
// service negotiates next to JSON. The JSON document (reportio.go) repeats
// every class/method/action string in full on every upload; at millions of
// devices the ingest path is dominated by decode allocations and those
// repeated strings. The binary format rides a per-device symbol dictionary
// instead: a device sends each distinct string once, as a dictionary
// *delta*, and refers to it by a dense uint32 ref thereafter — the same
// idea as internal/stack.Symtab, applied to the wire.
//
// Document layout (all integers are unsigned LEB128 varints unless noted):
//
//	magic    "HDB1" (4 bytes)
//	version  u8 (= 1)
//	flags    u8 (bit0: health section present)
//	device   str             — uploader identity for dictionary affinity;
//	                           "" marks a stateless, self-contained document
//	dictBase varint          — refs the encoder assumes the decoder already
//	                           holds; 0 resets the dictionary (full resync)
//	dict     varint count, count × str
//	                         — delta strings, assigned refs dictBase+1 …
//	                           dictBase+count in order
//	entries  varint count, count × entry
//	health   10 varints      — only when flags bit0 is set
//	exts     one section per set flag bit above bit0, ascending bit order:
//	         varint sectionLen, sectionLen bytes — a decoder that does not
//	         know a bit skips its section by length, so the format extends
//	         without a version bump (bit0's health block predates the
//	         scheme and stays an unprefixed 10-varint block forever)
//
//	causal section (bit1) :=
//	         workerStacksLost causalFallbacks
//	         varint chainedCount, count × (entryIndex kindRef
//	         originActionRef originSiteRef sharePermille)
//	         — chain provenance for entries diagnosed through an async
//	         chain, indexed into the entries array in strictly ascending
//	         order; the two extra health counters live here because the
//	         legacy health block's field count is frozen
//
//	str   := varint len, len bytes (UTF-8; the decoder rejects invalid UTF-8
//	         so a binary upload can never smuggle strings the JSON path
//	         would mangle)
//	entry := appRef actionRef rootRef fileRef line eflags(u8) hangs
//	         ndev ndev×devRef maxResponseNs sumResponseNs
//
// Canonical form: the encoder walks entries in Report.Entries() order
// (hangs descending, then app, action and root cause ascending), devices
// ascending within an entry (the order a DeviceSet keeps them in), and
// assigns dictionary refs in first-use order over that walk.
// Encoding is therefore a pure function of report content and prior
// dictionary state — encode→decode→encode round-trips byte-identically,
// which is what makes the encoding usable as a canonical content hash for
// upload dedup (fleet.ReportUploadID).
//
// Delta protocol: the decoder tracks the device's dictionary across
// documents. A document whose dictBase does not equal the decoder's
// current dictionary length signals divergence (server restart, evicted
// dictionary, lost upload) and fails with *DictMismatchError; the client
// recovers by resetting its encoder and resending with a full dictionary
// (dictBase 0), which also resets the decoder side. Dictionary deltas are
// committed only after the whole document validates, so a rejected upload
// never corrupts the device's dictionary state.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"unicode/utf8"

	"hangdoctor/internal/simclock"
)

const (
	// BinaryContentType negotiates the binary report encoding on
	// /v1/upload and is served by /v1/snapshot.
	BinaryContentType = "application/x-hangdoctor-report"

	binMagic        = "HDB1"
	binWireVersion  = 1
	binFlagHealth   = 1 << 0
	binFlagCausal   = 1 << 1
	binEntryViaCall = 1 << 0
	maxBinStringLen = 1 << 20 // longest single dictionary string
	maxBinPrealloc  = 4096    // cap on count-driven preallocation
	binMinHeaderLen = len(binMagic) + 2
)

// DictMismatchError reports a dictionary-delta document whose base does not
// match the decoder's dictionary. The client should reset its encoder and
// resend with a full dictionary (the HTTP layer maps this to 409).
type DictMismatchError struct {
	// Base is what the document assumed; Have is the decoder's length.
	Base, Have int
}

func (e *DictMismatchError) Error() string {
	return fmt.Sprintf("core: dictionary mismatch: document assumes %d entries, decoder holds %d (resend with a full dictionary)", e.Base, e.Have)
}

// ---------------------------------------------------------------------------
// Varint helpers (unsigned LEB128 over a byte slice — no readers, no allocs)

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// errShort is the generic truncation error; decode paths wrap it with
// context.
var errShort = errors.New("core: binary report truncated")

// binReader walks a document slice; all reads are bounds-checked and
// allocation-free.
type binReader struct {
	buf []byte
	off int
}

func (r *binReader) remaining() int { return len(r.buf) - r.off }

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, errShort
	}
	r.off += n
	return v, nil
}

// length reads a count/length field bounded by the bytes that remain — a
// corrupt count can therefore never drive an allocation bigger than the
// document itself.
func (r *binReader) length(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, fmt.Errorf("core: binary report: %s count: %w", what, err)
	}
	if v > uint64(r.remaining()) {
		return 0, fmt.Errorf("core: binary report: %s count %d exceeds remaining %d bytes", what, v, r.remaining())
	}
	return int(v), nil
}

func (r *binReader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, errShort
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// str reads a length-prefixed string. The returned string aliases a fresh
// allocation (strings are long-lived dictionary state).
func (r *binReader) str() (string, error) {
	raw, err := r.raw()
	return string(raw), err
}

// raw reads a length-prefixed string's bytes, which alias the document.
func (r *binReader) raw() ([]byte, error) {
	n, err := r.length("string")
	if err != nil {
		return nil, err
	}
	if n > maxBinStringLen {
		return nil, fmt.Errorf("core: binary report: string length %d exceeds cap %d", n, maxBinStringLen)
	}
	raw := r.buf[r.off : r.off+n]
	if !utf8.Valid(raw) {
		return nil, errors.New("core: binary report: string is not valid UTF-8")
	}
	r.off += n
	return raw, nil
}

// ---------------------------------------------------------------------------
// Encoder

// BinaryEncoder turns reports into binary documents, carrying the device's
// dictionary across calls so repeated strings ride as uint32 refs. One
// encoder belongs to one upload stream (one device); it is not safe for
// concurrent use.
type BinaryEncoder struct {
	device string
	refs   map[string]uint32 // string -> 1-based dictionary position
	base   int               // positions the decoder held before the next doc
	buf    []byte
	delta  []string // scratch for the current document's new strings
	ext    []byte   // scratch for length-prefixed extension sections
}

// NewBinaryEncoder returns an encoder for one device's upload stream.
// device "" produces stateless self-contained documents (every document
// carries its full dictionary) — the form used for WAL records, node
// snapshots, and canonical content hashing.
func NewBinaryEncoder(device string) *BinaryEncoder {
	return &BinaryEncoder{device: device, refs: map[string]uint32{}}
}

// Reset forgets the dictionary. The next Encode emits a full dictionary
// with dictBase 0, which instructs the decoder to reset too — the recovery
// step after a dictionary-mismatch rejection.
func (e *BinaryEncoder) Reset() {
	e.refs = map[string]uint32{}
	e.base = 0
}

// Encode serializes rep in canonical form, emitting only strings the
// decoder has not seen as a dictionary delta, and commits the delta (the
// decoder commits on successful decode; a client whose upload is lost
// recovers via the mismatch/Reset protocol). The returned slice is reused
// by the next Encode call — send or copy it first.
func (e *BinaryEncoder) Encode(rep *Report) []byte {
	e.buf = e.appendDoc(e.buf[:0], rep)
	e.base = len(e.refs)
	return e.buf
}

// AppendReportBinary appends rep's canonical stateless encoding (full
// dictionary, device "") to dst — the one-shot form used for content
// hashing, WAL records, and node snapshots.
func AppendReportBinary(dst []byte, rep *Report) []byte {
	e := NewBinaryEncoder("")
	return e.appendDoc(dst, rep)
}

// ref returns s's dictionary position, assigning the next one (and
// recording s in the pending delta) on first sight.
func (e *BinaryEncoder) ref(s string) uint32 {
	if id, ok := e.refs[s]; ok {
		return id
	}
	id := uint32(len(e.refs) + 1)
	e.refs[s] = id
	e.delta = append(e.delta, s)
	return id
}

func appendStr(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendDocHeader appends a document's header in wire order: magic,
// version, flags, device identity, the dictionary base the decoder is
// assumed to hold, the delta strings and the entry count. It and
// appendEntry are the one writer of the layout, for BinaryEncoder and
// DocWriter alike.
func appendDocHeader(dst []byte, flags byte, device string, dictBase int, delta []string, entries int) []byte {
	dst = append(dst, binMagic...)
	dst = append(dst, binWireVersion, flags)
	dst = appendStr(dst, device)
	dst = appendUvarint(dst, uint64(dictBase))
	dst = appendUvarint(dst, uint64(len(delta)))
	for _, s := range delta {
		dst = appendStr(dst, s)
	}
	return appendUvarint(dst, uint64(entries))
}

// appendEntry appends one entry in wire order, its strings as dictionary
// refs.
func appendEntry(dst []byte, app, action, root, file uint32, line int, viaCaller bool, hangs int, devs []uint32, maxResponse, sumResponse simclock.Duration) []byte {
	dst = appendUvarint(dst, uint64(app))
	dst = appendUvarint(dst, uint64(action))
	dst = appendUvarint(dst, uint64(root))
	dst = appendUvarint(dst, uint64(file))
	dst = appendUvarint(dst, uint64(line))
	eflags := byte(0)
	if viaCaller {
		eflags |= binEntryViaCall
	}
	dst = append(dst, eflags)
	dst = appendUvarint(dst, uint64(hangs))
	dst = appendUvarint(dst, uint64(len(devs)))
	for _, d := range devs {
		dst = appendUvarint(dst, uint64(d))
	}
	dst = appendUvarint(dst, uint64(maxResponse))
	return appendUvarint(dst, uint64(sumResponse))
}

func (e *BinaryEncoder) appendDoc(dst []byte, rep *Report) []byte {
	entries := rep.Entries()
	// Pass 1: assign refs in first-use order over the canonical walk, so
	// the delta section can be written before the entries that use it.
	e.delta = e.delta[:0]
	type encEntry struct {
		app, action, root, file uint32
		devs                    []uint32
		chained                 bool
		kind, corigin, csite    uint32
	}
	encs := make([]encEntry, len(entries))
	devRefs := make([]uint32, 0, len(entries))
	chained := 0
	for i, en := range entries {
		ee := encEntry{
			app:    e.ref(en.App),
			action: e.ref(en.ActionUID),
			root:   e.ref(en.RootCause),
			file:   e.ref(en.File),
		}
		start := len(devRefs)
		for _, d := range en.Devices.ids {
			devRefs = append(devRefs, e.ref(d))
		}
		ee.devs = devRefs[start:len(devRefs):len(devRefs)]
		if c := en.Chain; c != nil {
			// Chain strings join the same first-use dictionary walk, right
			// after the entry's device refs, so the delta order stays a pure
			// function of report content.
			ee.chained = true
			ee.kind = e.ref(c.Kind)
			ee.corigin = e.ref(c.OriginAction)
			ee.csite = e.ref(c.OriginSite)
			chained++
		}
		encs[i] = ee
	}

	// Pass 2: write the document.
	flags := byte(0)
	if !rep.Health.Zero() {
		flags |= binFlagHealth
	}
	if chained > 0 || !rep.Health.causalZero() {
		flags |= binFlagCausal
	}
	dst = appendDocHeader(dst, flags, e.device, e.base, e.delta, len(entries))
	for i, en := range entries {
		ee := &encs[i]
		dst = appendEntry(dst, ee.app, ee.action, ee.root, ee.file, en.Line, en.ViaCaller, en.Hangs, ee.devs, en.MaxResponse, en.SumResponse)
	}
	if flags&binFlagHealth != 0 {
		for _, c := range healthCounters[:healthLegacy] {
			dst = appendUvarint(dst, uint64(*c.field(&rep.Health)))
		}
	}
	if flags&binFlagCausal != 0 {
		// Extension sections are length-prefixed; build the body in scratch
		// first so the prefix is exact.
		e.ext = e.ext[:0]
		for _, c := range healthCounters[healthLegacy:] {
			e.ext = appendUvarint(e.ext, uint64(*c.field(&rep.Health)))
		}
		e.ext = appendUvarint(e.ext, uint64(chained))
		for i := range encs {
			ee := &encs[i]
			if !ee.chained {
				continue
			}
			e.ext = appendUvarint(e.ext, uint64(i))
			e.ext = appendUvarint(e.ext, uint64(ee.kind))
			e.ext = appendUvarint(e.ext, uint64(ee.corigin))
			e.ext = appendUvarint(e.ext, uint64(ee.csite))
			e.ext = appendUvarint(e.ext, uint64(entries[i].Chain.SharePermille))
		}
		dst = appendUvarint(dst, uint64(len(e.ext)))
		dst = append(dst, e.ext...)
	}
	e.delta = e.delta[:0]
	return dst
}

// ---------------------------------------------------------------------------
// Decoded view

// WireEntry is one decoded binary report entry with every string resolved
// against the device dictionary. Strings are shared with the dictionary
// (immutable), so holding a WireEntry does not pin the document bytes. Its
// App, ActionUID and RootCause are its identity, as a ReportEntry's are;
// merges hash and compare those fields, so a hand-built WireEntry needs
// nothing else to route and merge correctly.
type WireEntry struct {
	App         string
	ActionUID   string
	RootCause   string
	File        string
	Line        int
	ViaCaller   bool
	Hangs       int
	Devices     []string
	MaxResponse simclock.Duration
	SumResponse simclock.Duration
	// Chain is the entry's causal-chain provenance from the causal extension
	// section (zero when absent or when the decoder skipped the section).
	Chain CausalChain
}

// WireReport is one decoded binary upload: the uploading device, its
// entries in document order, and the optional health section. A view
// belongs to whoever decodes into it or routes it: BinaryDecoder.Decode
// and Runs refill its arrays, so a warm view decodes and routes without
// allocating.
type WireReport struct {
	Device  string
	Entries []WireEntry
	Health  Health

	devices []string  // backs the entries' Devices lists when decoded into
	hashes  []uint64  // each entry's identity hash, recorded by Runs
	idx     []int32   // backs the runs Runs returns, then their lengths
	runs    [][]int32 // the runs Runs returns
}

// TotalHangs sums the diagnosed hangs across entries.
func (wr *WireReport) TotalHangs() int {
	n := 0
	for i := range wr.Entries {
		n += wr.Entries[i].Hangs
	}
	return n
}

// Report materializes the wire view as a standalone Report.
func (wr *WireReport) Report() *Report {
	out := NewReport()
	out.MergeWire(wr)
	return out
}

// Wire returns r's wire view, the inverse of WireReport.Report: one entry
// per identity, in no particular order, and r's health. Each entry's device
// list is the entry's own device set, which never changes, so the view
// costs the same two allocations at any size and writing r afterwards
// leaves it as it was. Readers of the view must not write the lists.
func (r *Report) Wire() *WireReport {
	wr := &WireReport{Entries: make([]WireEntry, 0, r.entries.n), Health: r.Health}
	r.entries.each(func(l *trieLeaf) {
		e := &l.entry
		wr.Entries = append(wr.Entries, WireEntry{
			App: e.App, ActionUID: e.ActionUID, RootCause: e.RootCause,
			File: e.File, Line: e.Line, ViaCaller: e.ViaCaller, Hangs: e.Hangs,
			Devices: e.Devices.ids, MaxResponse: e.MaxResponse, SumResponse: e.SumResponse, Chain: e.Chain.value(),
		})
	})
	return wr
}

// Runs routes wr's entries to shards, which must be at least 1. It hashes
// each entry's identity once, with the hash a Report's trie files it under
// (hashID), records the hashes in wr for MergeWireRun, and returns one run
// of entry indices per shard, each in upload order; a shard wr holds
// nothing for gets an empty run. An identity's shard is its hash's top 32
// bits scaled to the shard count, (h>>32)*shards>>32. The trie reads the
// hash 5 bits at a time from the bottom and reaches bit 32 only at its
// seventh level, so each shard's identities still spread over every
// position of its trie's root. Like the hash, routing holds within one
// process only. The runs and hashes are cut from arrays wr keeps, each
// sized exactly when it grows, so a warm view routes without allocating.
// They describe wr's entries until those change; Decode drops the hashes.
func (wr *WireReport) Runs(shards int) [][]int32 {
	n := len(wr.Entries)
	wr.hashes = resize(wr.hashes, n)
	wr.idx = resize(wr.idx, n+shards)
	wr.runs = resize(wr.runs, shards)
	idx, lens := wr.idx[:n], wr.idx[n:]
	clear(lens)
	shardOf := func(h uint64) int { return int((h >> 32) * uint64(shards) >> 32) }
	for i := range wr.Entries {
		e := &wr.Entries[i]
		h := hashID(e.App, e.ActionUID, e.RootCause)
		wr.hashes[i] = h
		lens[shardOf(h)]++
	}
	off := int32(0)
	for s, l := range lens {
		wr.runs[s] = idx[off : off : off+l]
		off += l
	}
	for i, h := range wr.hashes {
		s := shardOf(h)
		wr.runs[s] = append(wr.runs[s], int32(i))
	}
	return wr.runs
}

// resize returns s at length n, reusing its array if it holds n elements
// and else allocating one of exactly n.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// MergeWire folds a decoded binary upload into r without intermediate
// maps: its health, then its entries in document order as one run
// (MergeWireRun over Runs(1)), so merging into entries the report already
// holds allocates nothing.
func (r *Report) MergeWire(wr *WireReport) {
	r.Health.Add(wr.Health)
	r.MergeWireRun(wr, wr.Runs(1)[0])
}

// MergeWireRun merges the entries of wr that run indexes into r, in run
// order. It is the shard-side merge of every upload: a shard reads its run
// of an upload's entries where they lie, in the decoder's view or in
// Report.Wire's, and retains none of them. It hashes nothing: each entry's
// identity hash is the one wr's last Runs recorded, so wr must have been
// routed since it was last decoded into, and it panics otherwise. The run
// merges lockstep entries at a time, and each group in three passes, so
// that the cache misses within a pass overlap rather than follow each
// other:
//
//  1. walk the group's trie paths together (entryTrie.writableGroup);
//  2. probe each entry r may merge into in place for the device of a
//     one-device list;
//  3. merge into those entries in place, without the device union where
//     the probe hit, and send every other wire entry through add.
//
// Every entry, stamp and total comes out as if each wire entry went
// through add in run order.
func (r *Report) MergeWireRun(wr *WireReport, run []int32) {
	if len(wr.hashes) != len(wr.Entries) {
		panic("core: MergeWireRun: the view was not routed (Runs) since it was last decoded into")
	}
	for len(run) > 0 {
		g := run[:min(len(run), lockstep)]
		r.mergeGroup(wr, g)
		run = run[len(g):]
	}
}

// mergeGroup is MergeWireRun for a run of at most lockstep entries.
func (r *Report) mergeGroup(wr *WireReport, run []int32) {
	var (
		src  [lockstep]ReportEntry
		hs   [lockstep]uint64
		es   [lockstep]*ReportEntry
		held [lockstep]bool
	)
	ents := wr.Entries
	for k, j := range run {
		src[k] = ents[j].entry()
		hs[k] = wr.hashes[j]
	}
	n := len(run)
	r.entries.writableGroup(hs[:n], src[:n], es[:n])
	for k, e := range es[:n] {
		if devs := ents[run[k]].Devices; e != nil && len(devs) == 1 {
			held[k] = e.Devices.holdsString(devs[0])
		}
	}
	for k, e := range es[:n] {
		devs := ents[run[k]].Devices
		switch {
		case e == nil:
			r.add(hs[k], &src[k], devs)
			continue
		case held[k]:
			devs = nil
		}
		e.merge(&src[k], devs)
		r.totalHangs = satAdd(r.totalHangs, src[k].Hangs)
	}
}

// entry returns we as a ReportEntry without its device list, which merge
// takes separately, and with its own copy of we's chain, if any.
func (we *WireEntry) entry() ReportEntry {
	return ReportEntry{
		App: we.App, ActionUID: we.ActionUID, RootCause: we.RootCause,
		File: we.File, Line: we.Line, ViaCaller: we.ViaCaller,
		Hangs: we.Hangs, MaxResponse: we.MaxResponse, SumResponse: we.SumResponse,
		Chain: we.Chain.ref(),
	}
}

// ---------------------------------------------------------------------------
// Decoder

// BinaryDecoder decodes one device's binary documents, mirroring the
// dictionary the device's encoder builds. It holds that dictionary and
// nothing else: the views it decodes into are the caller's. It is not safe
// for concurrent use; the fleet layer serializes per-device decoding.
type BinaryDecoder struct {
	strs    []string // dictionary: ref i at strs[i-1]
	pending []string // the document's delta, staged until it validates
	device  string   // memo of the last header device (avoids re-allocating it)
}

// NewBinaryDecoder returns an empty-dictionary decoder.
func NewBinaryDecoder() *BinaryDecoder { return &BinaryDecoder{} }

// resolve maps a 1-based ref onto the committed dictionary plus the
// document's pending delta.
func (d *BinaryDecoder) resolve(ref uint64) (string, error) {
	if ref == 0 {
		return "", errors.New("core: binary report: ref 0 is invalid")
	}
	i := ref - 1
	if i < uint64(len(d.strs)) {
		return d.strs[i], nil
	}
	if i < uint64(len(d.strs)+len(d.pending)) {
		return d.pending[i-uint64(len(d.strs))], nil
	}
	return "", fmt.Errorf("core: binary report: ref %d beyond dictionary size %d", ref, len(d.strs)+len(d.pending))
}

// readHeader checks a document's magic and version and reads its flags
// and device identity, whose bytes alias doc, leaving r after the device.
func readHeader(doc []byte) (r binReader, flags byte, device []byte, err error) {
	if len(doc) < binMinHeaderLen || string(doc[:len(binMagic)]) != binMagic {
		return r, 0, nil, errors.New("core: binary report: bad magic")
	}
	if v := doc[len(binMagic)]; v != binWireVersion {
		return r, 0, nil, fmt.Errorf("core: unsupported binary report version %d", v)
	}
	r = binReader{buf: doc, off: binMinHeaderLen}
	if device, err = r.raw(); err != nil {
		return r, 0, nil, fmt.Errorf("core: binary report: device: %w", err)
	}
	return r, doc[len(binMagic)+1], device, nil
}

// Decode parses one document into into, refilling into's entry and device
// arrays, so decoding into a warm view allocates nothing. The view's
// slices stay valid until the next decode into it; its strings are the
// dictionary's and never change. Decode drops the hashes the view's last
// Runs recorded, so the view must be routed again before it merges. The
// dictionary delta commits only if the whole document validates. After an
// error into's contents are unspecified.
func (d *BinaryDecoder) Decode(doc []byte, into *WireReport) error {
	into.hashes = into.hashes[:0]
	r, flags, device, err := readHeader(doc)
	if err != nil {
		return err
	}
	if string(device) != d.device {
		d.device = string(device)
	}

	base, err := r.uvarint()
	if err != nil {
		return fmt.Errorf("core: binary report: dictBase: %w", err)
	}
	if base == 0 && len(d.strs) > 0 {
		// Full resync: the client reset its encoder (or is a different
		// process entirely); drop the old dictionary.
		d.strs = d.strs[:0]
	}
	if base != uint64(len(d.strs)) {
		return &DictMismatchError{Base: int(base), Have: len(d.strs)}
	}

	nDelta, err := r.length("dictionary")
	if err != nil {
		return err
	}
	d.pending = d.pending[:0]
	if cap(d.pending) < nDelta && nDelta <= maxBinPrealloc {
		d.pending = make([]string, 0, nDelta)
	}
	for i := 0; i < nDelta; i++ {
		s, err := r.str()
		if err != nil {
			return fmt.Errorf("core: binary report: dictionary string %d: %w", i, err)
		}
		d.pending = append(d.pending, s)
	}

	nEntries, err := r.length("entry")
	if err != nil {
		return err
	}
	entries := into.Entries[:0]
	if cap(entries) < nEntries && nEntries <= maxBinPrealloc {
		entries = make([]WireEntry, 0, nEntries)
	}
	devs := into.devices[:0]
	for i := 0; i < nEntries; i++ {
		var we WireEntry
		var refs [4]uint64
		for j := range refs {
			if refs[j], err = r.uvarint(); err != nil {
				return fmt.Errorf("core: binary report: entry %d refs: %w", i, err)
			}
		}
		if we.App, err = d.resolve(refs[0]); err != nil {
			return err
		}
		if we.ActionUID, err = d.resolve(refs[1]); err != nil {
			return err
		}
		if we.RootCause, err = d.resolve(refs[2]); err != nil {
			return err
		}
		if we.File, err = d.resolve(refs[3]); err != nil {
			return err
		}
		if we.RootCause == "" {
			return fmt.Errorf("core: entry for app %q action %q has empty root cause", we.App, we.ActionUID)
		}
		line, err := r.uvarint()
		if err != nil || line > math.MaxInt {
			return fmt.Errorf("core: binary report: entry %d line: invalid", i)
		}
		we.Line = int(line)
		eflags, err := r.byte()
		if err != nil {
			return fmt.Errorf("core: binary report: entry %d flags: %w", i, err)
		}
		we.ViaCaller = eflags&binEntryViaCall != 0
		hangs, err := r.uvarint()
		if err != nil || hangs == 0 || hangs > math.MaxInt {
			return fmt.Errorf("core: entry %s/%s has invalid hang count", we.App, we.RootCause)
		}
		we.Hangs = int(hangs)
		nDev, err := r.length("device")
		if err != nil {
			return fmt.Errorf("core: binary report: entry %d: %w", i, err)
		}
		start := len(devs)
		for j := 0; j < nDev; j++ {
			ref, err := r.uvarint()
			if err != nil {
				return fmt.Errorf("core: binary report: entry %d device ref: %w", i, err)
			}
			dev, err := d.resolve(ref)
			if err != nil {
				return err
			}
			devs = append(devs, dev)
		}
		we.Devices = devs[start:len(devs):len(devs)]
		maxR, err := r.uvarint()
		if err != nil || maxR > math.MaxInt64 {
			return fmt.Errorf("core: binary report: entry %d max response: invalid", i)
		}
		sumR, err := r.uvarint()
		if err != nil || sumR > math.MaxInt64 {
			return fmt.Errorf("core: binary report: entry %d response sum: invalid", i)
		}
		we.MaxResponse = simclock.Duration(maxR)
		we.SumResponse = simclock.Duration(sumR)
		entries = append(entries, we)
	}

	var health Health
	if flags&binFlagHealth != 0 {
		for i, c := range healthCounters[:healthLegacy] {
			v, err := r.uvarint()
			if err != nil || v > math.MaxInt {
				return fmt.Errorf("core: binary report: health field %d: invalid", i)
			}
			*c.field(&health) = int(v)
		}
	}
	// Extension sections, one per set flag bit above bit0 in ascending bit
	// order. Bits other than binFlagCausal are skipped by their length
	// prefix, so a section added later does not break this decoder.
	for bit := byte(binFlagHealth << 1); bit != 0; bit <<= 1 {
		if flags&bit == 0 {
			continue
		}
		n, err := r.length("extension section")
		if err != nil {
			return err
		}
		if bit != binFlagCausal {
			r.off += n
			continue
		}
		sr := &binReader{buf: r.buf[:r.off+n], off: r.off}
		if err := d.decodeCausal(sr, entries, &health); err != nil {
			return err
		}
		if sr.off != r.off+n {
			return fmt.Errorf("core: binary report: extension bit %d: %d bytes left over", bit, r.off+n-sr.off)
		}
		r.off = sr.off
	}
	if r.remaining() != 0 {
		return fmt.Errorf("core: binary report: %d trailing bytes after document", r.remaining())
	}

	// Everything validated: commit the delta and publish the view. Its
	// entries' Devices lists are already final subslices of devs. An empty
	// dictionary (a fresh decoder's, or after a resync) adopts the delta
	// instead of copying it.
	if len(d.strs) == 0 {
		d.strs, d.pending = d.pending, nil
	} else {
		d.strs = append(d.strs, d.pending...)
		d.pending = d.pending[:0]
	}
	into.Device = d.device
	into.Entries = entries
	into.devices = devs
	into.Health = health
	return nil
}

// decodeCausal parses the causal extension section into the two post-legacy
// health counters and per-entry chain provenance.
func (d *BinaryDecoder) decodeCausal(r *binReader, entries []WireEntry, health *Health) error {
	for _, c := range healthCounters[healthLegacy:] {
		v, err := r.uvarint()
		if err != nil || v > math.MaxInt {
			return fmt.Errorf("core: binary report: causal section: %s: invalid", strings.ReplaceAll(c.stem, "_", " "))
		}
		*c.field(health) = int(v)
	}
	nChained, err := r.length("chained entry")
	if err != nil {
		return err
	}
	prev := -1
	for i := 0; i < nChained; i++ {
		idx, err := r.uvarint()
		if err != nil {
			return fmt.Errorf("core: binary report: chain %d entry index: %w", i, err)
		}
		// Strictly ascending indices keep the section canonical (and reject
		// duplicate attributions for one entry).
		if idx >= uint64(len(entries)) || int(idx) <= prev {
			return fmt.Errorf("core: binary report: chain %d entry index %d out of order or beyond %d entries", i, idx, len(entries))
		}
		prev = int(idx)
		var refs [3]uint64
		for j := range refs {
			if refs[j], err = r.uvarint(); err != nil {
				return fmt.Errorf("core: binary report: chain %d refs: %w", i, err)
			}
		}
		var chain CausalChain
		if chain.Kind, err = d.resolve(refs[0]); err != nil {
			return err
		}
		if chain.OriginAction, err = d.resolve(refs[1]); err != nil {
			return err
		}
		if chain.OriginSite, err = d.resolve(refs[2]); err != nil {
			return err
		}
		share, err := r.uvarint()
		if err != nil || share > 1000 {
			return fmt.Errorf("core: binary report: chain %d share out of [0,1000]", i)
		}
		chain.SharePermille = int(share)
		if chain.Zero() {
			// A zero chain must be encoded by omission, or re-encoding would
			// drop the row and break the canonical fixed point.
			return fmt.Errorf("core: binary report: chain %d is all-zero", i)
		}
		entries[idx].Chain = chain
	}
	return nil
}

// PeekBinaryDevice extracts the device identity from a binary document
// header without decoding the body — the fleet layer uses it to pick the
// per-device dictionary before full decoding. The bytes alias doc, so a
// peek allocates nothing.
func PeekBinaryDevice(doc []byte) ([]byte, error) {
	_, _, device, err := readHeader(doc)
	return device, err
}

// IsBinaryReport reports whether doc starts with the binary report magic —
// a cheap sniff for paths that accept either encoding.
func IsBinaryReport(doc []byte) bool {
	return len(doc) >= len(binMagic) && string(doc[:len(binMagic)]) == binMagic
}
