package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"hangdoctor/internal/simclock"
)

// causalReport builds a report where every entry carries a chain and both
// causal health counters are set — the maximal causal payload.
func causalReport() *Report {
	rep := NewReport()
	diag := Diagnosis{RootCause: "com.demo.db.Store.query", File: "Store.java", Line: 41}
	chain := CausalChain{Kind: "submit", OriginAction: "Demo/Open", OriginSite: "com.demo.task.Loader.run", SharePermille: 640}
	rep.AddChained("Demo", "dev-1", "Demo/Open", diag, chain, 300*simclock.Millisecond)
	rep.AddChained("Demo", "dev-2", "Demo/Open", diag, chain, 200*simclock.Millisecond)
	diag2 := Diagnosis{RootCause: "com.demo.sync.Engine.uploadAll", File: "Engine.java", Line: 324}
	chain2 := CausalChain{Kind: "completion", OriginAction: "Demo/Sync", OriginSite: "com.demo.sync.Engine.uploadAll", SharePermille: 910}
	rep.AddChained("Demo", "dev-1", "Demo/Sync", diag2, chain2, 450*simclock.Millisecond)
	rep.Health = Health{WorkerStacksLost: 3, CausalFallbacks: 1}
	return rep
}

// TestBinaryCausalFlagSetOnlyWhenNeeded pins the compatibility contract:
// the causal flag bit appears exactly when the document carries chains or
// causal health counters, so chain-free uploads stay byte-identical to the
// pre-causal format.
func TestBinaryCausalFlagSetOnlyWhenNeeded(t *testing.T) {
	plain := NewReport()
	plain.Add("App", "d", "App/a", Diagnosis{RootCause: "x.Y.m", File: "Y.java", Line: 2}, 150*simclock.Millisecond)
	doc := AppendReportBinary(nil, plain)
	flags := doc[len(binMagic)+1]
	if flags&binFlagCausal != 0 {
		t.Fatalf("chain-free doc sets causal flag (flags=%#x)", flags)
	}

	doc = AppendReportBinary(nil, causalReport())
	flags = doc[len(binMagic)+1]
	if flags&binFlagCausal == 0 {
		t.Fatalf("causal doc does not set causal flag (flags=%#x)", flags)
	}
}

// TestBinaryDecoderSkipsUnknownExtension pins forward compatibility: a
// document carrying an extension section this decoder does not know (a
// flag bit above causal and a length-prefixed body) decodes to the same
// view as the same document without it.
func TestBinaryDecoderSkipsUnknownExtension(t *testing.T) {
	doc := AppendReportBinary(nil, causalReport())
	want, err := decodeNew(NewBinaryDecoder(), doc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	extended := append([]byte(nil), doc...)
	extended[len(binMagic)+1] |= binFlagCausal << 1
	extended = binary.AppendUvarint(extended, 3)
	extended = append(extended, 0xde, 0xad, 0xbe)
	got, err := decodeNew(NewBinaryDecoder(), extended)
	if err != nil {
		t.Fatalf("decode with an unknown extension section: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unknown extension changed the decoded view:\n got  %+v\n want %+v", got, want)
	}
}

// TestBinaryCausalRoundTripCanonical: documents with chains reach the
// canonical fixed point like everything else.
func TestBinaryCausalRoundTripCanonical(t *testing.T) {
	doc := AppendReportBinary(nil, causalReport())
	wr, err := decodeNew(NewBinaryDecoder(), doc)
	if err != nil {
		t.Fatal(err)
	}
	again := AppendReportBinary(nil, wr.Report())
	if !bytes.Equal(doc, again) {
		t.Fatalf("causal encode→decode→encode not byte-identical (%d vs %d bytes)", len(doc), len(again))
	}
	// And the materialized report carries the chains.
	for _, e := range wr.Report().Entries() {
		if e.Chain == nil {
			t.Fatalf("chain lost in round trip: %+v", e)
		}
	}
}

// TestBinaryCausalDictDelta: chain strings participate in the per-device
// dictionary protocol, so steady-state causal uploads collapse to refs.
func TestBinaryCausalDictDelta(t *testing.T) {
	enc := NewBinaryEncoder("dev-c")
	dec := NewBinaryDecoder()
	doc1 := append([]byte(nil), enc.Encode(causalReport())...)
	if _, err := decodeNew(dec, doc1); err != nil {
		t.Fatalf("upload 1: %v", err)
	}
	doc2 := append([]byte(nil), enc.Encode(causalReport())...)
	wr2, err := decodeNew(dec, doc2)
	if err != nil {
		t.Fatalf("upload 2: %v", err)
	}
	if len(doc2) >= len(doc1) {
		t.Fatalf("warm-dictionary causal upload did not shrink: %dB then %dB", len(doc1), len(doc2))
	}
	for _, e := range wr2.Report().Entries() {
		if e.Chain == nil {
			t.Fatalf("delta upload lost chain: %+v", e)
		}
	}
	if enc.base != len(dec.strs) {
		t.Fatalf("dictionaries diverged: enc=%d dec=%d", enc.base, len(dec.strs))
	}
}

// TestBinaryCausalDecodeValidation rejects malformed causal sections
// instead of merging garbage.
func TestBinaryCausalDecodeValidation(t *testing.T) {
	base := AppendReportBinary(nil, causalReport())
	if _, err := decodeNew(NewBinaryDecoder(), base); err != nil {
		t.Fatalf("fixture does not decode: %v", err)
	}
	// Truncations inside the causal section must error, not panic or hang.
	for cut := 1; cut < 40 && cut < len(base); cut++ {
		trunc := base[:len(base)-cut]
		if _, err := decodeNew(NewBinaryDecoder(), trunc); err == nil {
			t.Fatalf("truncated doc (-%dB) accepted", cut)
		}
	}
	// Flipping the share bytes out of range must be caught by validation;
	// find the encoded share (910 = varint 0x8e 0x07) and corrupt it.
	idx := bytes.LastIndex(base, []byte{0x8e, 0x07})
	if idx >= 0 {
		bad := append([]byte(nil), base...)
		bad[idx], bad[idx+1] = 0xff, 0x7f // 16383 permille
		if _, err := decodeNew(NewBinaryDecoder(), bad); err == nil {
			t.Fatal("out-of-range chain share accepted")
		}
	}
}

// TestJSONCausalRoundTrip: the JSON wire carries chains and the causal
// health counters through export → import unchanged.
func TestJSONCausalRoundTrip(t *testing.T) {
	rep := causalReport()
	var buf bytes.Buffer
	if err := rep.Export(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ImportReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Health != rep.Health {
		t.Fatalf("health diverged: %+v vs %+v", back.Health, rep.Health)
	}
	var again bytes.Buffer
	if err := back.Export(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("JSON causal round trip not byte-identical")
	}
	for _, e := range back.Entries() {
		if e.Chain == nil {
			t.Fatalf("chain lost in JSON round trip: %+v", e)
		}
	}
	// Out-of-range share is rejected on import.
	bad := bytes.Replace(buf.Bytes(), []byte(`"chain_share_permille": 910`), []byte(`"chain_share_permille": 1910`), 1)
	if !bytes.Equal(bad, buf.Bytes()) {
		if _, err := ImportReport(bytes.NewReader(bad)); err == nil {
			t.Fatal("chain share 1910 accepted by ImportReport")
		}
	} else {
		t.Fatal("fixture did not contain the expected share field")
	}
}
