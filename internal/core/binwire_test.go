package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

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
		wr, err := dec.Decode(doc)
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
		wr, err := dec.Decode(AppendReportBinary(nil, rep))
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
	wr1, err := dec.Decode(doc1)
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
	wr2, err := dec.Decode(doc2)
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
	wr3, err := dec.Decode(doc3)
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
	_, err := fresh.Decode(doc2)
	var mismatch *DictMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("want DictMismatchError, got %v", err)
	}
	if mismatch.Have != 0 || mismatch.Base == 0 {
		t.Fatalf("mismatch = %+v", mismatch)
	}

	enc.Reset()
	full := enc.Encode(rep)
	wr, err := fresh.Decode(full)
	if err != nil {
		t.Fatalf("full resend after reset: %v", err)
	}
	if got, want := exportJSON(t, wr.Report()), exportJSON(t, rep); !bytes.Equal(got, want) {
		t.Fatal("resend content diverged")
	}

	// A dictBase-0 document also resets a decoder that held state.
	warm := NewBinaryDecoder()
	if _, err := warm.Decode(full); err != nil {
		t.Fatal(err)
	}
	before := len(warm.strs)
	enc2 := NewBinaryEncoder("d")
	tiny := synthReport(4, "d", 2)
	if _, err := warm.Decode(enc2.Encode(tiny)); err != nil {
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
	if _, err := dec.Decode(doc[:len(doc)-1]); err == nil {
		t.Fatal("truncated document accepted")
	}
	if len(dec.strs) != 0 {
		t.Fatalf("rejected document committed %d dictionary strings", len(dec.strs))
	}
	if _, err := dec.Decode(doc); err != nil {
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
		if _, err := NewBinaryDecoder().Decode(doc); err == nil {
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
	if _, err := NewBinaryDecoder().Decode(doc); err == nil {
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
	if _, err := NewBinaryDecoder().Decode(doc2); err == nil {
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
	wr, err := dec.Decode(AppendReportBinary(nil, up))
	if err != nil {
		t.Fatal(err)
	}
	got.MergeWire(wr)

	if g, w := exportJSON(t, got), exportJSON(t, want); !bytes.Equal(g, w) {
		t.Fatalf("MergeWire diverged from Merge\n--- want ---\n%s\n--- got ---\n%s", w, g)
	}
}

// TestBinaryDecodeScratchAllocs pins the hot-path claim: steady-state
// decoding of a warm-dictionary (empty-delta) document through
// DecodeScratch does not allocate.
func TestBinaryDecodeScratchAllocs(t *testing.T) {
	enc := NewBinaryEncoder("device-0")
	rep := synthReport(9, "device-0", 60)
	full := append([]byte(nil), enc.Encode(rep)...) // establishes the dictionary
	doc := append([]byte(nil), enc.Encode(rep)...)  // empty-delta document

	dec := NewBinaryDecoder()
	if _, err := dec.DecodeScratch(full); err != nil {
		t.Fatal(err)
	}
	// The empty-delta doc neither grows the dictionary nor mismatches, so
	// it decodes repeatably; one warm pass grows the scratch.
	if _, err := dec.DecodeScratch(doc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := dec.DecodeScratch(doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm DecodeScratch allocates %v times per op, want 0", allocs)
	}
}

// TestFreshDecoderAdoptsDictionary: a fresh decoder takes its first
// document's dictionary delta as its dictionary instead of copying it,
// and holds no cache beside it. Building a decoder, kept as the fleet
// keeps one per device, and decoding a document that carries k
// dictionary strings and no entries allocates the decoder, the view, the
// delta's array and its k strings, and nothing more, and the decoder
// keeps no scratch beside its dictionary.
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
	allocs := testing.AllocsPerRun(100, func() {
		decs[next] = NewBinaryDecoder()
		if _, err := decs[next].Decode(doc); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if want := float64(k + 3); allocs != want {
		t.Errorf("a fresh decoder and its first Decode allocate %v objects, want %v: the decoder, the view, the delta's array and its %d strings", allocs, want, k)
	}
	if d := decs[0]; len(d.strs) != k || d.pending != nil {
		t.Errorf("after its first document a fresh decoder holds %d strings and %d of scratch, want %d and none", len(d.strs), cap(d.pending), k)
	}
}

// TestShardIndexKeyMatchesShardIndex: a report upload (its Wire view) and
// the same report as a decoded binary upload must agree on shard
// ownership, fragment for fragment.
func TestShardIndexKeyMatchesShardIndex(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rep := synthReport(seed, "d", 20)
		rep.Health.StacksDropped = int(seed)
		decoded, err := NewBinaryDecoder().Decode(AppendReportBinary(nil, rep))
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
