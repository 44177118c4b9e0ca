package core

import (
	"errors"
	"testing"

	"hangdoctor/internal/simclock"
)

// docWriterDoc hand-encodes a two-entry document the way a simulated
// device does: refs assigned in first-use walk order over the entries,
// device name last.
func docWriterDoc(w *DocWriter, device string, dictBase int, delta []string) []byte {
	// Refs (full dict): app=1 action=2 root=3 file=4, second entry reuses
	// the app and introduces root=5 file=6; device=7.
	w.Begin(device, dictBase, delta, 2)
	w.Entry(1, 2, 3, 4, 42, true, 3, []uint32{7}, 5*simclock.Millisecond, 15*simclock.Millisecond)
	w.Entry(1, 2, 5, 6, 99, false, 1, []uint32{7}, 2*simclock.Millisecond, 2*simclock.Millisecond)
	return w.Finish()
}

var docWriterDict = []string{
	"app-00", "app-00/Action-01", "com.example.Op001.run", "Op001.java",
	"com.example.Op002.run", "Op002.java", "device-x",
}

func TestDocWriterDecodes(t *testing.T) {
	var w DocWriter
	doc := docWriterDoc(&w, "device-x", 0, docWriterDict)
	dec := NewBinaryDecoder()
	wr, err := decodeNew(dec, doc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if wr.Device != "device-x" || len(wr.Entries) != 2 {
		t.Fatalf("decoded device=%q entries=%d", wr.Device, len(wr.Entries))
	}
	e0 := wr.Entries[0]
	if e0.App != "app-00" || e0.ActionUID != "app-00/Action-01" ||
		e0.RootCause != "com.example.Op001.run" || e0.File != "Op001.java" {
		t.Fatalf("entry 0 strings wrong: %+v", e0)
	}
	if e0.Line != 42 || !e0.ViaCaller || e0.Hangs != 3 ||
		e0.MaxResponse != 5*simclock.Millisecond || e0.SumResponse != 15*simclock.Millisecond {
		t.Fatalf("entry 0 fields wrong: %+v", e0)
	}
	if len(e0.Devices) != 1 || e0.Devices[0] != "device-x" {
		t.Fatalf("entry 0 devices wrong: %v", e0.Devices)
	}
	if wr.Entries[1].RootCause != "com.example.Op002.run" || wr.Entries[1].ViaCaller {
		t.Fatalf("entry 1 wrong: %+v", wr.Entries[1])
	}
	if !wr.Health.Zero() {
		t.Fatalf("DocWriter documents must carry no health section: %+v", wr.Health)
	}
}

// TestDocWriterMatchesEncoderReport pins decode-equivalence with the
// canonical encoder: a DocWriter document and a BinaryEncoder document of
// the same logical upload must materialize identical reports.
func TestDocWriterMatchesEncoderReport(t *testing.T) {
	rep := NewReport()
	d1 := Diagnosis{RootCause: "com.example.Op001.run", File: "Op001.java", Line: 42, Occurrence: 1, ViaCaller: true}
	for i := 0; i < 3; i++ {
		rep.Add("app-00", "device-x", "app-00/Action-01", d1, 5*simclock.Millisecond)
	}
	d2 := Diagnosis{RootCause: "com.example.Op002.run", File: "Op002.java", Line: 99, Occurrence: 1}
	rep.Add("app-00", "device-x", "app-00/Action-01", d2, 2*simclock.Millisecond)

	var w DocWriter
	doc := docWriterDoc(&w, "device-x", 0, docWriterDict)
	wr, err := decodeNew(NewBinaryDecoder(), doc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, want := string(exportJSON(t, wr.Report())), string(exportJSON(t, rep))
	if got != want {
		t.Fatalf("DocWriter report diverges from canonical:\n got %s\nwant %s", got, want)
	}
}

// TestDocWriterDeltaProtocol drives the steady-state delta path and the
// 409-style mismatch recovery a simulated device performs.
func TestDocWriterDeltaProtocol(t *testing.T) {
	var w DocWriter
	dec := NewBinaryDecoder()
	if _, err := decodeNew(dec, docWriterDoc(&w, "device-x", 0, docWriterDict)); err != nil {
		t.Fatalf("full upload: %v", err)
	}
	if len(dec.strs) != len(docWriterDict) {
		t.Fatalf("dict len %d, want %d", len(dec.strs), len(docWriterDict))
	}

	// Steady state: empty delta against the committed base.
	steady := docWriterDoc(&w, "device-x", len(docWriterDict), nil)
	wr, err := decodeNew(dec, steady)
	if err != nil {
		t.Fatalf("delta upload: %v", err)
	}
	if len(wr.Entries) != 2 || wr.Entries[0].App != "app-00" {
		t.Fatalf("delta decode wrong: %+v", wr.Entries)
	}

	// A fresh decoder (server restart) rejects the delta with a
	// dictionary mismatch; resending in full recovers.
	fresh := NewBinaryDecoder()
	_, err = decodeNew(fresh, docWriterDoc(&w, "device-x", len(docWriterDict), nil))
	var dm *DictMismatchError
	if !errors.As(err, &dm) {
		t.Fatalf("stale delta err = %v, want DictMismatchError", err)
	}
	if _, err := decodeNew(fresh, docWriterDoc(&w, "device-x", 0, docWriterDict)); err != nil {
		t.Fatalf("resync resend: %v", err)
	}
}

func TestDocWriterFinishCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Finish with a short entry count must panic")
		}
	}()
	var w DocWriter
	w.Begin("d", 0, []string{"a"}, 2)
	w.Entry(1, 1, 1, 1, 1, false, 1, nil, 0, 0)
	w.Finish()
}

func TestDocWriterSteadyStateAllocs(t *testing.T) {
	var w DocWriter
	docWriterDoc(&w, "device-x", 0, docWriterDict) // grow the buffer once
	allocs := testing.AllocsPerRun(100, func() {
		docWriterDoc(&w, "device-x", 0, docWriterDict)
	})
	if allocs != 0 {
		t.Fatalf("warm DocWriter document costs %.1f allocs/op, want 0", allocs)
	}
}
