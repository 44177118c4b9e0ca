package core

// docwriter.go is the zero-allocation client-side counterpart of
// BinaryEncoder: a writer for callers that already know their dictionary
// refs. BinaryEncoder owns the whole canonical pipeline — it walks a
// *Report, sorts entries, interns strings in a map, and
// assigns refs in first-use order — which is exactly right for real
// devices but far too heavy for a load generator that keeps per-device
// ref assignments precomputed (internal/sim holds them in packed
// templates). DocWriter skips all of that: the caller supplies refs,
// line numbers, and counters directly and the writer just serializes
// them in wire order into a reusable buffer, through the encoder's own
// header and entry writers (appendDocHeader, appendEntry). Steady state
// allocates nothing once the buffer has grown to document size.
//
// The caller owns the protocol invariants the encoder normally
// guarantees: refs must resolve against the decoder's committed
// dictionary plus this document's delta (delta strings take refs
// dictBase+1…dictBase+len(delta) in order), the entry count passed to
// Begin must match the Entry calls made, and hang counts must be ≥ 1
// with a non-empty root cause. The decoder validates all of it, so a
// malformed document is rejected server-side, never silently merged.
// DocWriter never emits a health section (flags stay 0): synthetic
// device ticks carry entries only.

import "hangdoctor/internal/simclock"

// DocWriter serializes binary report documents from caller-managed
// dictionary refs. The zero value is ready to use; one writer belongs to
// one goroutine.
type DocWriter struct {
	buf     []byte
	entries int // declared in Begin, counted down by Entry
}

// Begin resets the writer and writes the document header: magic, version,
// device identity, the dictionary base the decoder is assumed to hold,
// the delta strings (taking refs dictBase+1… in order), and the entry
// count. Exactly `entries` Entry calls must follow before Finish.
func (w *DocWriter) Begin(device string, dictBase int, delta []string, entries int) {
	w.buf = appendDocHeader(w.buf[:0], 0, device, dictBase, delta, entries)
	w.entries = entries
}

// Entry appends one entry in wire order. devRefs are the refs of the
// devices that observed the entry (a device upload passes its own
// identity's ref).
func (w *DocWriter) Entry(appRef, actionRef, rootRef, fileRef uint32, line int, viaCaller bool, hangs int, devRefs []uint32, maxResponse, sumResponse simclock.Duration) {
	w.buf = appendEntry(w.buf, appRef, actionRef, rootRef, fileRef, line, viaCaller, hangs, devRefs, maxResponse, sumResponse)
	w.entries--
}

// Finish returns the completed document. The slice aliases the writer's
// internal buffer and is valid until the next Begin — send it (or copy
// it) first. Finish panics if the Entry count does not match Begin's
// declaration: that is a caller bug that would otherwise surface as a
// confusing decode error on the server.
func (w *DocWriter) Finish() []byte {
	if w.entries != 0 {
		panic("core: DocWriter.Finish: entry count does not match Begin")
	}
	return w.buf
}

// EntryKey joins an entry's identity, its (app, action, root cause), into
// one string with \x00 between the fields: a map key for callers that
// group entries outside a Report, and the bytes ShardIndex hashes. A
// Report itself compares the three fields, so two identities whose fields
// join to the same string, which needs a \x00 inside a field, are still
// two entries.
func EntryKey(app, actionUID, rootCause string) string {
	return app + "\x00" + actionUID + "\x00" + rootCause
}
