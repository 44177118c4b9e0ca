package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

// FuzzImportReport ensures the report parser never panics and that every
// accepted document re-exports cleanly (parse → export → parse is a fixed
// point on the entry set), each entry listing exactly the sorted,
// deduplicated union of the devices its identity's input entries listed.
func FuzzImportReport(f *testing.F) {
	// Seed with a valid export.
	r := NewReport()
	r.Add("App", "dev", "App/act", Diagnosis{RootCause: "x.Y.m", File: "Y.java", Line: 2}, 150*simclock.Millisecond)
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"version":1,"entries":[]}`)
	f.Add(`{"version":2}`)
	f.Add(`garbage`)
	f.Add(`{"version":1,"entries":[{"hangs":-3}]}`)
	// Two entries of one identity merge: 6 hangs in one row, not the last
	// row's 4 under a total of 6.
	f.Add(`{"version":1,"entries":[` +
		`{"app":"A","action_uid":"A/act","root_cause":"x.Y.m","file":"Y.java","line":2,"hangs":2,"devices":["d1"],"max_response_ns":5,"sum_response_ns":9},` +
		`{"app":"A","action_uid":"A/act","root_cause":"x.Y.m","file":"Y.java","line":2,"hangs":4,"devices":["d2"],"max_response_ns":7,"sum_response_ns":20}]}`)
	// Device lists out of order and with repeats.
	f.Add(nonCanonicalJSON)
	// Two identities whose fields join to the same string stay two rows.
	f.Add(`{"version":1,"entries":[` +
		`{"app":"a\u0000b","action_uid":"c","root_cause":"r","hangs":1,"devices":["d1"]},` +
		`{"app":"a","action_uid":"b\u0000c","root_cause":"r","hangs":1,"devices":["d2"]}]}`)

	f.Fuzz(func(t *testing.T, doc string) {
		rep, err := ImportReport(strings.NewReader(doc))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := rep.Export(&out); err != nil {
			t.Fatalf("accepted report failed to export: %v", err)
		}
		back, err := ImportReport(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip of accepted report failed: %v", err)
		}
		if back.Len() != rep.Len() || back.TotalHangs() != rep.TotalHangs() {
			t.Fatalf("round trip changed the report: %d/%d vs %d/%d",
				rep.Len(), rep.TotalHangs(), back.Len(), back.TotalHangs())
		}
		// The input as ImportReport read it, and the export.
		var in, exported reportWire
		if err := json.NewDecoder(strings.NewReader(doc)).Decode(&in); err != nil {
			t.Fatalf("accepted document does not decode: %v", err)
		}
		if err := json.Unmarshal(out.Bytes(), &exported); err != nil {
			t.Fatal(err)
		}
		want := map[rowKey][]string{}
		for _, e := range in.Entries {
			k := rowKey{e.App, e.ActionUID, e.RootCause}
			want[k] = append(want[k], e.Devices...)
		}
		if len(exported.Entries) != len(want) {
			t.Fatalf("export holds %d entries, the input %d identities", len(exported.Entries), len(want))
		}
		for _, e := range exported.Entries {
			union := want[rowKey{e.App, e.ActionUID, e.RootCause}]
			slices.Sort(union)
			if union = slices.Compact(union); !slices.Equal(e.Devices, union) {
				t.Fatalf("entry %s/%s exports devices %q, want %q", e.App, e.RootCause, e.Devices, union)
			}
		}
	})
}

// FuzzReportRoundTrip builds a report from fuzzed field values, exports it,
// and checks the import is equal field-for-field — the structured complement
// to FuzzImportReport's arbitrary-bytes no-panic coverage.
func FuzzReportRoundTrip(f *testing.F) {
	f.Add("K9-Mail", "K9-Mail/Inbox", "o.h.HtmlCleaner.clean", "HtmlCleaner.java", 42, 3, int64(150), int64(400))
	f.Add("App", "App/act", "x.Y.m", "", 0, 1, int64(0), int64(0))
	f.Fuzz(func(t *testing.T, appName, action, root, file string, line, hangs int, rt1, rt2 int64) {
		// Add can only produce well-formed entries; constrain the fuzzed
		// values to its domain rather than reimplementing validation here.
		if root == "" || line < 0 || hangs <= 0 || hangs > 1000 || rt1 < 0 || rt2 < 0 {
			t.Skip()
		}
		// encoding/json coerces invalid UTF-8 to U+FFFD, so only valid
		// strings can round-trip byte-identically.
		if !utf8.ValidString(appName) || !utf8.ValidString(action) ||
			!utf8.ValidString(root) || !utf8.ValidString(file) {
			t.Skip()
		}
		r := NewReport()
		diag := Diagnosis{RootCause: root, File: file, Line: line}
		for i := 0; i < hangs; i++ {
			rt := rt1
			if i%2 == 1 {
				rt = rt2
			}
			r.Add(appName, "dev-a", action, diag, simclock.Duration(rt)*simclock.Millisecond)
		}
		r.Health = Health{StacksDropped: hangs, VerdictsDeferred: line % 7}

		var buf bytes.Buffer
		if err := r.Export(&buf); err != nil {
			t.Fatalf("export: %v", err)
		}
		back, err := ImportReport(&buf)
		if err != nil {
			t.Fatalf("import of own export: %v", err)
		}
		if back.Len() != r.Len() || back.TotalHangs() != r.TotalHangs() {
			t.Fatalf("round trip changed totals: %d/%d vs %d/%d",
				r.Len(), r.TotalHangs(), back.Len(), back.TotalHangs())
		}
		if back.Health != r.Health {
			t.Fatalf("round trip changed health: %+v vs %+v", r.Health, back.Health)
		}
		want, got := r.Entries()[0], back.Entries()[0]
		if got.App != want.App || got.ActionUID != want.ActionUID ||
			got.RootCause != want.RootCause || got.File != want.File ||
			got.Line != want.Line || got.Hangs != want.Hangs ||
			got.MaxResponse != want.MaxResponse || got.SumResponse != want.SumResponse ||
			got.Devices.Len() != want.Devices.Len() {
			t.Fatalf("round trip changed the entry:\n  want %+v\n  got  %+v", want, got)
		}
	})
}

// TestReportMergeCommutative: merging device reports in any order yields the
// same fleet view — required for an upload pipeline with no ordering
// guarantees.
func TestReportMergeCommutative(t *testing.T) {
	rng := simrand.New(77)
	mkReport := func(seed string) *Report {
		r := NewReport()
		local := rng.Derive(seed)
		for i := 0; i < 5+local.Intn(10); i++ {
			r.Add(
				"App",
				"dev"+string(rune('a'+local.Intn(4))),
				"App/act"+string(rune('0'+local.Intn(3))),
				Diagnosis{RootCause: "c.C.m" + string(rune('0'+local.Intn(3)))},
				simclock.Duration(100+local.Intn(900))*simclock.Millisecond,
			)
		}
		return r
	}
	fingerprint := func(r *Report) string {
		var b bytes.Buffer
		if err := r.Export(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, bb, c := mkReport("a"), mkReport("b"), mkReport("c")
	m1 := NewReport()
	m1.Merge(a, bb, c)
	m2 := NewReport()
	m2.Merge(c)
	m2.Merge(bb)
	m2.Merge(a)
	if fingerprint(m1) != fingerprint(m2) {
		t.Fatal("merge order changed the fleet report")
	}
}

// TestFoldOrderDisagreeingMetadata: two devices that disagree on where a
// root cause lives fold to one row whatever the order — the smallest
// (file, line), self-developed if either device said so.
func TestFoldOrderDisagreeingMetadata(t *testing.T) {
	a, b := NewReport(), NewReport()
	a.Add("app", "dev-a", "act", Diagnosis{RootCause: "r", File: "F.java", Line: 20}, simclock.Second)
	b.Add("app", "dev-b", "act", Diagnosis{RootCause: "r", File: "F.java", Line: 10, ViaCaller: true}, simclock.Second)
	ab, ba := FoldReports(a, b).Render(), FoldReports(b, a).Render()
	if ab != ba {
		t.Fatalf("fold order changed the report:\n%s\nvs\n%s", ab, ba)
	}
	if !strings.Contains(ab, "r (F.java:10) [self-developed] @ act") {
		t.Fatalf("merged row lost the smallest location or the caller flag:\n%s", ab)
	}
}
