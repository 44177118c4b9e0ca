package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

// synthReport builds a randomized but deterministic report in the shape of
// fleet uploads: entries drawn from bounded pools so repeated reports
// overlap on hot causes.
func synthReport(seed uint64, device string, entries int) *Report {
	rng := simrand.New(seed)
	rep := NewReport()
	for i := 0; i < entries; i++ {
		app := fmt.Sprintf("app-%02d", rng.Intn(8))
		action := fmt.Sprintf("%s/Action-%02d", app, rng.Intn(24))
		op := rng.Intn(200)
		diag := Diagnosis{
			RootCause: fmt.Sprintf("com.example.blocking.Op%03d.run", op),
			File:      fmt.Sprintf("Op%03d.java", op),
			Line:      1 + op*7%899,
			ViaCaller: op%17 == 0,
		}
		rt := simclock.Duration(100+rng.Intn(1900)) * simclock.Millisecond
		// A slice of entries carries causal-chain provenance, so every
		// round-trip and differential test also covers the causal extension.
		var chain CausalChain
		if op%5 == 0 {
			chain = CausalChain{
				Kind:          []string{"submit", "delay", "post", "completion"}[op%4],
				OriginAction:  fmt.Sprintf("%s/Origin-%02d", app, op%6),
				OriginSite:    fmt.Sprintf("com.example.spawn.Site%02d.run", op%9),
				SharePermille: 1 + op%1000,
			}
		}
		for h := 0; h < 1+rng.Intn(3); h++ {
			rep.AddChained(app, device, action, diag, chain, rt)
		}
	}
	if rng.Bool(0.3) {
		rep.Health = Health{CountersLost: rng.Intn(5), StacksDropped: rng.Intn(3), Quarantines: rng.Intn(2)}
	}
	if rng.Bool(0.25) {
		rep.Health.WorkerStacksLost = rng.Intn(4)
		rep.Health.CausalFallbacks = rng.Intn(3)
	}
	return rep
}

// decodeNew decodes doc through d into a view of its own.
func decodeNew(d *BinaryDecoder, doc []byte) (*WireReport, error) {
	wr := new(WireReport)
	return wr, d.Decode(doc, wr)
}

func exportJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryRoundTripCanonical pins the canonical-form guarantee:
// encode → decode → encode is byte-identical, for stateless documents and
// across a delta sequence.
func TestBinaryRoundTripCanonical(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rep := synthReport(seed, fmt.Sprintf("device-%d", seed), 40)
		doc := AppendReportBinary(nil, rep)

		dec := NewBinaryDecoder()
		wr, err := decodeNew(dec, doc)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		again := AppendReportBinary(nil, wr.Report())
		if !bytes.Equal(doc, again) {
			t.Fatalf("seed %d: encode→decode→encode is not byte-identical (%d vs %d bytes)", seed, len(doc), len(again))
		}
	}
}

// TestBinaryDifferentialJSON is the differential oracle: for randomized
// reports, the binary path (encode→decode→Report) exports byte-identically
// to the JSON path (export→import), including render output.
func TestBinaryDifferentialJSON(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		rep := synthReport(seed*31, fmt.Sprintf("device-%d", seed), 1+int(seed)%60)
		viaJSON, err := ImportReport(bytes.NewReader(exportJSON(t, rep)))
		if err != nil {
			t.Fatalf("seed %d: json import: %v", seed, err)
		}
		dec := NewBinaryDecoder()
		wr, err := decodeNew(dec, AppendReportBinary(nil, rep))
		if err != nil {
			t.Fatalf("seed %d: binary decode: %v", seed, err)
		}
		viaBin := wr.Report()
		if got, want := exportJSON(t, viaBin), exportJSON(t, viaJSON); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: binary and JSON paths diverge\n--- json ---\n%s\n--- binary ---\n%s", seed, want, got)
		}
		if viaBin.Render() != viaJSON.Render() {
			t.Fatalf("seed %d: rendered output diverges", seed)
		}
	}
}

// TestBinaryDictDelta exercises the per-device dictionary protocol: the
// second upload of overlapping content carries only new strings, decodes
// against the retained dictionary, and shrinks dramatically.
func TestBinaryDictDelta(t *testing.T) {
	enc := NewBinaryEncoder("device-7")
	dec := NewBinaryDecoder()

	rep1 := synthReport(1, "device-7", 60)
	doc1 := append([]byte(nil), enc.Encode(rep1)...)
	wr1, err := decodeNew(dec, doc1)
	if err != nil {
		t.Fatalf("upload 1: %v", err)
	}
	if wr1.Device != "device-7" {
		t.Fatalf("device = %q", wr1.Device)
	}
	if got, want := exportJSON(t, wr1.Report()), exportJSON(t, rep1); !bytes.Equal(got, want) {
		t.Fatal("upload 1 content diverged")
	}
	if len(dec.strs) == 0 || len(dec.strs) != enc.base {
		t.Fatalf("dict lengths diverge: enc=%d dec=%d", enc.base, len(dec.strs))
	}

	// Steady state: the device re-reports the same causes with new hangs —
	// every string is already in the dictionary, so the document carries an
	// empty delta and collapses to refs.
	rep2 := synthReport(1, "device-7", 60)
	doc2 := append([]byte(nil), enc.Encode(rep2)...)
	wr2, err := decodeNew(dec, doc2)
	if err != nil {
		t.Fatalf("upload 2: %v", err)
	}
	if got, want := exportJSON(t, wr2.Report()), exportJSON(t, rep2); !bytes.Equal(got, want) {
		t.Fatal("upload 2 content diverged")
	}
	if len(doc2) >= len(doc1)/3 {
		t.Fatalf("warm-dictionary upload did not shrink: first=%dB second=%dB", len(doc1), len(doc2))
	}
	jsonLen := len(exportJSON(t, rep2))
	if len(doc2)*10 >= jsonLen {
		t.Fatalf("binary steady-state doc (%dB) is not ≥10x smaller than JSON (%dB)", len(doc2), jsonLen)
	}

	// Partial overlap: a shifted seed re-uses hot strings and deltas only
	// the unseen tail.
	rep3 := synthReport(2, "device-7", 60)
	dict3 := len(dec.strs)
	doc3 := append([]byte(nil), enc.Encode(rep3)...)
	wr3, err := decodeNew(dec, doc3)
	if err != nil {
		t.Fatalf("upload 3: %v", err)
	}
	if got, want := exportJSON(t, wr3.Report()), exportJSON(t, rep3); !bytes.Equal(got, want) {
		t.Fatal("upload 3 content diverged")
	}
	if len(dec.strs) <= dict3 {
		t.Fatal("partial-overlap upload added no dictionary strings")
	}
}

// TestBinaryDictMismatchAndReset: a decoder that lost its dictionary (fresh
// server) rejects a delta document with *DictMismatchError, and the
// encoder-side Reset + full resend recovers.
func TestBinaryDictMismatchAndReset(t *testing.T) {
	enc := NewBinaryEncoder("d")
	rep := synthReport(3, "d", 20)
	enc.Encode(rep)                                 // upload 1 establishes the dictionary
	doc2 := append([]byte(nil), enc.Encode(rep)...) // delta-only document

	fresh := NewBinaryDecoder()
	_, err := decodeNew(fresh, doc2)
	var mismatch *DictMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("want DictMismatchError, got %v", err)
	}
	if mismatch.Have != 0 || mismatch.Base == 0 {
		t.Fatalf("mismatch = %+v", mismatch)
	}

	enc.Reset()
	full := enc.Encode(rep)
	wr, err := decodeNew(fresh, full)
	if err != nil {
		t.Fatalf("full resend after reset: %v", err)
	}
	if got, want := exportJSON(t, wr.Report()), exportJSON(t, rep); !bytes.Equal(got, want) {
		t.Fatal("resend content diverged")
	}

	// A dictBase-0 document also resets a decoder that held state.
	warm := NewBinaryDecoder()
	if _, err := decodeNew(warm, full); err != nil {
		t.Fatal(err)
	}
	before := len(warm.strs)
	enc2 := NewBinaryEncoder("d")
	tiny := synthReport(4, "d", 2)
	if _, err := decodeNew(warm, enc2.Encode(tiny)); err != nil {
		t.Fatalf("reset document rejected: %v", err)
	}
	if len(warm.strs) >= before {
		t.Fatalf("dictionary did not reset: %d -> %d", before, len(warm.strs))
	}
}

// TestBinaryRejectedDocDoesNotCommit: a document that fails validation
// midway must not advance the dictionary.
func TestBinaryRejectedDocDoesNotCommit(t *testing.T) {
	enc := NewBinaryEncoder("d")
	rep := synthReport(5, "d", 10)
	doc := append([]byte(nil), enc.Encode(rep)...)

	dec := NewBinaryDecoder()
	if _, err := decodeNew(dec, doc[:len(doc)-1]); err == nil {
		t.Fatal("truncated document accepted")
	}
	if len(dec.strs) != 0 {
		t.Fatalf("rejected document committed %d dictionary strings", len(dec.strs))
	}
	if _, err := decodeNew(dec, doc); err != nil {
		t.Fatalf("clean document after rejection: %v", err)
	}
}

// TestBinaryDecodeValidation spot-checks the corrupt-document rejections.
func TestBinaryDecodeValidation(t *testing.T) {
	rep := synthReport(6, "d", 4)
	good := AppendReportBinary(nil, rep)

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), good[4:]...),
		"bad version": append(append([]byte(binMagic), 99), good[5:]...),
		"trailing":    append(append([]byte(nil), good...), 0xEE),
	}
	for name, doc := range cases {
		if _, err := decodeNew(NewBinaryDecoder(), doc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Ref beyond dictionary: a handcrafted doc with one entry and no dict.
	var doc []byte
	doc = append(doc, binMagic...)
	doc = append(doc, binWireVersion, 0)
	doc = appendStr(doc, "")    // device
	doc = appendUvarint(doc, 0) // dictBase
	doc = appendUvarint(doc, 0) // dict count
	doc = appendUvarint(doc, 1) // entry count
	doc = appendUvarint(doc, 9) // app ref out of range
	if _, err := decodeNew(NewBinaryDecoder(), doc); err == nil {
		t.Error("out-of-range ref accepted")
	}

	// Invalid UTF-8 in a dictionary string.
	var doc2 []byte
	doc2 = append(doc2, binMagic...)
	doc2 = append(doc2, binWireVersion, 0)
	doc2 = appendStr(doc2, "")
	doc2 = appendUvarint(doc2, 0)
	doc2 = appendUvarint(doc2, 1)
	doc2 = appendUvarint(doc2, 2)
	doc2 = append(doc2, 0xFF, 0xFE)
	doc2 = appendUvarint(doc2, 0)
	if _, err := decodeNew(NewBinaryDecoder(), doc2); err == nil {
		t.Error("invalid UTF-8 accepted")
	}
}

// TestMergeWireMatchesMerge: merging decoded wire entries into an existing
// report gives the same bytes as merging the materialized report.
func TestMergeWireMatchesMerge(t *testing.T) {
	base := synthReport(7, "base", 30)
	up := synthReport(8, "d8", 30)

	want := FoldReports(base)
	want.Merge(FoldReports(up))

	got := FoldReports(base)
	dec := NewBinaryDecoder()
	wr, err := decodeNew(dec, AppendReportBinary(nil, up))
	if err != nil {
		t.Fatal(err)
	}
	got.MergeWire(wr)

	if g, w := exportJSON(t, got), exportJSON(t, want); !bytes.Equal(g, w) {
		t.Fatalf("MergeWire diverged from Merge\n--- want ---\n%s\n--- got ---\n%s", w, g)
	}
}

// TestBinaryDecodeWarmViewAllocs pins the hot-path claim: decoding a
// warm-dictionary (empty-delta) document into a warm view does not
// allocate.
func TestBinaryDecodeWarmViewAllocs(t *testing.T) {
	enc := NewBinaryEncoder("device-0")
	rep := synthReport(9, "device-0", 60)
	full := append([]byte(nil), enc.Encode(rep)...) // establishes the dictionary
	doc := append([]byte(nil), enc.Encode(rep)...)  // empty-delta document

	dec := NewBinaryDecoder()
	var view WireReport
	if err := dec.Decode(full, &view); err != nil {
		t.Fatal(err)
	}
	// The empty-delta doc neither grows the dictionary nor mismatches, so
	// it decodes repeatably into the view the first document sized.
	allocs := testing.AllocsPerRun(100, func() {
		if err := dec.Decode(doc, &view); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding into a warm view allocates %v times per op, want 0", allocs)
	}
}

// TestDecodeIntoUsedView: a view that held a large document, with causal
// chains, multi-device entries and health, takes a smaller plain one as a
// new view does, in the arrays it already has, and keeps nothing of the
// first: the device, every entry with its devices and chain, and the
// health.
func TestDecodeIntoUsedView(t *testing.T) {
	large := causalReport()
	large.Merge(synthReport(12, "dev-3", 60))
	large.Health.CountersLost = 2
	plain := NewReport()
	plain.Add("App", "d", "App/a", Diagnosis{RootCause: "x.Y.m", File: "Y.java", Line: 2}, 150*simclock.Millisecond)
	plain.Add("App", "d", "App/b", Diagnosis{RootCause: "x.Z.n", File: "Z.java", Line: 9}, 120*simclock.Millisecond)
	small := NewBinaryEncoder("device-small").Encode(plain)

	var view WireReport
	if err := NewBinaryDecoder().Decode(AppendReportBinary(nil, large), &view); err != nil {
		t.Fatal(err)
	}
	chained, shared := 0, 0
	for i := range view.Entries {
		if !view.Entries[i].Chain.Zero() {
			chained++
		}
		if len(view.Entries[i].Devices) > 1 {
			shared++
		}
	}
	if chained == 0 || shared == 0 || view.Health.Zero() || len(view.Entries) <= len(plain.Wire().Entries) {
		t.Fatalf("the large document decodes to %d entries, %d chained, %d on several devices, health %v: it tests nothing", len(view.Entries), chained, shared, view.Health)
	}
	entries := &view.Entries[0]

	if err := NewBinaryDecoder().Decode(small, &view); err != nil {
		t.Fatal(err)
	}
	want, err := decodeNew(NewBinaryDecoder(), small)
	if err != nil {
		t.Fatal(err)
	}
	if view.Device != want.Device || view.Health != want.Health || len(view.Entries) != len(want.Entries) {
		t.Fatalf("the used view holds device %q, health %v and %d entries, want %q, %v and %d",
			view.Device, view.Health, len(view.Entries), want.Device, want.Health, len(want.Entries))
	}
	for i := range want.Entries {
		if got, w := view.Entries[i], want.Entries[i]; !reflect.DeepEqual(got, w) {
			t.Errorf("entry %d of the used view is %+v, want %+v", i, got, w)
		}
	}
	if &view.Entries[0] != entries {
		t.Error("the smaller document did not reuse the view's entry array")
	}
}

// TestBinaryDecoderSize pins what a decoder costs the fleet, which keeps
// one per device: its dictionary, the delta it stages and its device memo,
// eight words (64 B on 64-bit platforms), and no buffers for the views it
// decodes into, which are the caller's.
func TestBinaryDecoderSize(t *testing.T) {
	if got, want := unsafe.Sizeof(BinaryDecoder{}), 8*unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("a decoder takes %d bytes, want %d", got, want)
	}
}

// TestFreshDecoderAdoptsDictionary: a fresh decoder takes its first
// document's dictionary delta as its dictionary instead of copying it,
// and holds no cache beside it. Building a decoder, kept as the fleet
// keeps one per device, and decoding a document that carries k
// dictionary strings and no entries into the caller's view allocates the
// decoder, the delta's array and its k strings, and nothing more, and the
// decoder keeps no scratch beside its dictionary.
func TestFreshDecoderAdoptsDictionary(t *testing.T) {
	const k = 40
	delta := make([]string, k)
	for i := range delta {
		delta[i] = fmt.Sprintf("string-%02d", i)
	}
	var w DocWriter
	w.Begin("", 0, delta, 0)
	doc := w.Finish()

	decs := make([]*BinaryDecoder, 101) // AllocsPerRun's warm-up and 100 runs
	next := 0
	var view WireReport
	allocs := testing.AllocsPerRun(100, func() {
		decs[next] = NewBinaryDecoder()
		if err := decs[next].Decode(doc, &view); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if want := float64(k + 2); allocs != want {
		t.Errorf("a fresh decoder and its first Decode allocate %v objects, want %v: the decoder, the delta's array and its %d strings", allocs, want, k)
	}
	if d := decs[0]; len(d.strs) != k || d.pending != nil {
		t.Errorf("after its first document a fresh decoder holds %d strings and %d of scratch, want %d and none", len(d.strs), cap(d.pending), k)
	}
}

// TestRunsAgreeAcrossViewForms: a report upload (its Wire view) and the
// same report as a decoded binary upload must agree on shard ownership,
// fragment for fragment.
func TestRunsAgreeAcrossViewForms(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rep := synthReport(seed, "d", 20)
		rep.Health.StacksDropped = int(seed)
		decoded, err := decodeNew(NewBinaryDecoder(), AppendReportBinary(nil, rep))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4, 7, 16} {
			byWire, byDecode := shardParts(rep.Wire(), shards), shardParts(decoded, shards)
			for i := range byWire {
				if (byWire[i] == nil) != (byDecode[i] == nil) ||
					byWire[i] != nil && !bytes.Equal(exportJSON(t, byWire[i]), exportJSON(t, byDecode[i])) {
					t.Fatalf("seed %d, shards=%d: shard %d differs between the Wire view and the decoded upload", seed, shards, i)
				}
			}
		}
	}
}

// TestRunsSpread: 10,000 random identities routed over 8 shards leave no
// shard empty and none above 1.2 times its share, a bound about 7 standard
// deviations from the mean, so no seed of the hash fails it. Each shard's
// identities also reach all 32 positions of a trie root, which routing by
// the hash's low bits would not.
func TestRunsSpread(t *testing.T) {
	const ids, shards = 10000, 8
	rng := simrand.New(9)
	wr := &WireReport{Entries: make([]WireEntry, ids)}
	for i := range wr.Entries {
		wr.Entries[i] = WireEntry{
			App:       fmt.Sprintf("app-%d", rng.Intn(50)),
			ActionUID: fmt.Sprintf("act-%d", rng.Uint64()),
			RootCause: fmt.Sprintf("c.C%d.m", rng.Uint64()),
		}
	}
	runs := wr.Runs(shards)
	if len(runs) != shards {
		t.Fatalf("Runs(%d) returned %d runs", shards, len(runs))
	}
	routed := 0
	for s, run := range runs {
		if len(run) == 0 || len(run) > ids/shards*12/10 {
			t.Errorf("shard %d holds %d of %d identities, want 1 to %d", s, len(run), ids, ids/shards*12/10)
		}
		var roots uint32
		for k, j := range run {
			if k > 0 && j <= run[k-1] {
				t.Fatalf("shard %d's run is out of upload order at %d", s, k)
			}
			roots |= position(0, wr.hashes[j])
		}
		if roots != ^uint32(0) {
			t.Errorf("shard %d's identities reach root positions %032b, want all 32", s, roots)
		}
		routed += len(run)
	}
	if routed != ids {
		t.Errorf("the runs hold %d entries, want %d", routed, ids)
	}
}

// TestRunsAllocs: a warm view routes without allocating, whatever its
// entry count, and a fresh Report.Wire view routes with one allocation
// count at 4 and 120 entries, its arrays sized exactly.
func TestRunsAllocs(t *testing.T) {
	const shards = 8
	var fresh []float64
	for _, entries := range []int{4, 120} {
		rep := synthReport(3, "device-a", entries)
		warm, err := decodeNew(NewBinaryDecoder(), AppendReportBinary(nil, rep))
		if err != nil {
			t.Fatal(err)
		}
		warm.Runs(shards)
		if n := testing.AllocsPerRun(100, func() { warm.Runs(shards) }); n != 0 {
			t.Errorf("a warm view of %d entries routes with %v allocations, want 0", entries, n)
		}
		wires := testing.AllocsPerRun(100, func() { rep.Wire() })
		fresh = append(fresh, testing.AllocsPerRun(100, func() { rep.Wire().Runs(shards) })-wires)
		wr := rep.Wire()
		wr.Runs(shards)
		if n := len(wr.Entries); cap(wr.hashes) != n || cap(wr.idx) != n+shards || cap(wr.runs) != shards {
			t.Errorf("a fresh view of %d entries routes into arrays of %d hashes, %d indices and %d runs, want %d, %d and %d",
				n, cap(wr.hashes), cap(wr.idx), cap(wr.runs), n, n+shards, shards)
		}
	}
	if fresh[0] != fresh[1] || fresh[1] > 3 {
		t.Errorf("a fresh view routes with %v allocations at 4 and 120 entries, want one count of at most 3", fresh)
	}
}

// TestMergeWireRunRefusesUnroutedView: decoding into a view drops the
// hashes its last Runs recorded, so a run merge of it before it is routed
// again panics, saying why, rather than file entries under stale hashes.
func TestMergeWireRunRefusesUnroutedView(t *testing.T) {
	doc := AppendReportBinary(nil, synthReport(4, "d", 12))
	wr, err := decodeNew(NewBinaryDecoder(), doc)
	if err != nil {
		t.Fatal(err)
	}
	run := wr.Runs(1)[0]
	NewReport().MergeWireRun(wr, run)
	if err := NewBinaryDecoder().Decode(doc, wr); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "not routed") {
			t.Errorf("MergeWireRun of a view decoded into after it was routed: recovered %v, want the unrouted-view panic", r)
		}
	}()
	NewReport().MergeWireRun(wr, run)
}

// TestWireAllocs: a report's wire view costs the same two allocations
// whatever its entry count, the view and its entries, because every
// entry's device list is its device set's own array.
func TestWireAllocs(t *testing.T) {
	var allocs []float64
	for _, entries := range []int{4, 120} {
		rep := synthReport(3, "device-a", entries)
		allocs = append(allocs, testing.AllocsPerRun(100, func() { rep.Wire() }))
	}
	if allocs[0] != allocs[1] || allocs[1] > 2 {
		t.Errorf("Wire allocates %v for 4 and 120 entries, want one count of at most 2", allocs)
	}
}
