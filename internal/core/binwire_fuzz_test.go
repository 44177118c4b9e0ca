package core

import (
	"bytes"
	"testing"

	"hangdoctor/internal/simclock"
)

// FuzzBinaryDecode feeds the binary decoder arbitrary bytes: it must never
// panic, never allocate proportionally to corrupt length fields, and every
// accepted document must canonicalize to a fixed point (decode → encode →
// decode → encode is byte-identical).
func FuzzBinaryDecode(f *testing.F) {
	rep := NewReport()
	rep.Add("App", "dev-1", "App/act", Diagnosis{RootCause: "x.Y.m", File: "Y.java", Line: 2}, 150*simclock.Millisecond)
	rep.Add("App", "dev-2", "App/act", Diagnosis{RootCause: "x.Y.m", File: "Y.java", Line: 2}, 90*simclock.Millisecond)
	rep.Health = Health{CountersLost: 1}
	f.Add(AppendReportBinary(nil, rep))
	// Causal-extension seeds: a maximal causal doc, and one where only the
	// health counters set the flag (empty chain list in the section).
	f.Add(AppendReportBinary(nil, causalReport()))
	onlyHealth := NewReport()
	onlyHealth.Add("App", "dev-1", "App/act", Diagnosis{RootCause: "x.Y.m", File: "Y.java", Line: 2}, 150*simclock.Millisecond)
	onlyHealth.Health = Health{WorkerStacksLost: 2, CausalFallbacks: 1}
	f.Add(AppendReportBinary(nil, onlyHealth))
	f.Add([]byte(binMagic))
	f.Add(append([]byte(binMagic), binWireVersion, 0, 0, 0, 0, 0))
	f.Add([]byte("garbage that is longer than the header"))
	// An entry that lists a device twice and out of order: both decoders
	// accept it, and the canonical form sorts and deduplicates the set.
	f.Add(nonCanonicalBinary())
	// A huge claimed entry count with no bytes behind it.
	f.Add(append(append([]byte(binMagic), binWireVersion, 0, 0, 0, 0), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F))

	f.Fuzz(func(t *testing.T, doc []byte) {
		wr, err := NewBinaryDecoder().Decode(doc)
		if err != nil {
			return
		}
		// Accepted: materializing and re-encoding must reach a canonical
		// fixed point.
		once := AppendReportBinary(nil, wr.Report())
		wr2, err := NewBinaryDecoder().Decode(once)
		if err != nil {
			t.Fatalf("canonical re-encode of accepted doc rejected: %v", err)
		}
		twice := AppendReportBinary(nil, wr2.Report())
		if !bytes.Equal(once, twice) {
			t.Fatalf("canonicalization is not a fixed point (%d vs %d bytes)", len(once), len(twice))
		}
		// The wire totals must survive materialization.
		if wr.TotalHangs() != wr.Report().TotalHangs() {
			t.Fatalf("hang totals diverge: wire=%d report=%d", wr.TotalHangs(), wr.Report().TotalHangs())
		}
	})
}

// FuzzBinaryDeltaSequence drives an encoder/decoder pair with fuzz-chosen
// report shapes, checking the dictionary-delta protocol stays in lockstep
// and every document round-trips content-identically.
func FuzzBinaryDeltaSequence(f *testing.F) {
	f.Add(uint64(1), uint64(2), 10, 20)
	f.Add(uint64(7), uint64(7), 1, 1)
	f.Add(uint64(3), uint64(9), 60, 0)
	f.Fuzz(func(t *testing.T, seed1, seed2 uint64, n1, n2 int) {
		if n1 < 0 || n1 > 200 || n2 < 0 || n2 > 200 {
			t.Skip()
		}
		enc := NewBinaryEncoder("dev")
		dec := NewBinaryDecoder()
		for i, spec := range []struct {
			seed uint64
			n    int
		}{{seed1, n1}, {seed2, n2}} {
			rep := synthReport(spec.seed, "dev", spec.n)
			doc := enc.Encode(rep)
			wr, err := dec.Decode(doc)
			if err != nil {
				t.Fatalf("upload %d: %v", i, err)
			}
			var want, got bytes.Buffer
			if err := rep.Export(&want); err != nil {
				t.Fatal(err)
			}
			if err := wr.Report().Export(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("upload %d content diverged", i)
			}
			if enc.base != len(dec.strs) {
				t.Fatalf("upload %d: dictionaries diverged: enc=%d dec=%d", i, enc.base, len(dec.strs))
			}
		}
	})
}
