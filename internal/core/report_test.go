package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hangdoctor/internal/simclock"
)

// joinedKeyLess orders entries by their joined EntryKey strings: the
// tie-break of Report.Entries on fields without \x00.
func joinedKeyLess(a, b *ReportEntry) bool {
	return EntryKey(a.App, a.ActionUID, a.RootCause) < EntryKey(b.App, b.ActionUID, b.RootCause)
}

// TestEntriesOrderMatchesJoinedKey: Report.Entries orders rows by hang
// count, then by app, action and root cause in turn, and compareEntryKeys
// returns 0 only for one identity, on fields drawn from a small alphabet
// with \x00 and shared prefixes, where distinct identities join to the
// same string. On fields without \x00 the order equals that of the joined
// keys, so rendered reports keep their order.
func TestEntriesOrderMatchesJoinedKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	field := func(alphabet string) string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	entry := func(alphabet string) *ReportEntry {
		return rowOf(field(alphabet), field(alphabet), field(alphabet))
	}
	fieldwise := func(a, b *ReportEntry) int {
		for _, c := range [...]int{
			strings.Compare(a.App, b.App),
			strings.Compare(a.ActionUID, b.ActionUID),
			strings.Compare(a.RootCause, b.RootCause),
		} {
			if c != 0 {
				return c
			}
		}
		return 0
	}
	for i := 0; i < 20000; i++ {
		a, b := entry("a\x00b"), entry("a\x00b")
		if got, want := compareEntryKeys(a, b), fieldwise(a, b); got != want {
			t.Fatalf("compareEntryKeys(%v, %v) = %d, field by field %d", keyOf(a), keyOf(b), got, want)
		}
		if (compareEntryKeys(a, b) == 0) != a.sameID(b) {
			t.Fatalf("compareEntryKeys(%v, %v) = 0 for distinct identities", keyOf(a), keyOf(b))
		}
		a, b = entry("ab/"), entry("ab/")
		want := 0
		switch {
		case joinedKeyLess(a, b):
			want = -1
		case joinedKeyLess(b, a):
			want = 1
		}
		if got := compareEntryKeys(a, b); got != want {
			t.Fatalf("compareEntryKeys(%v, %v) = %d, joined keys say %d", keyOf(a), keyOf(b), got, want)
		}
	}

	// Whole reports: Entries orders rows by hangs, then field by field,
	// and holds one row per identity.
	rep := NewReport()
	ids := map[rowKey]bool{}
	for i := 0; i < 500; i++ {
		e := entry("a\x00b")
		ids[keyOf(e)] = true
		for n := rng.Intn(3); n >= 0; n-- {
			rep.Add(e.App, "device", e.ActionUID, Diagnosis{RootCause: e.RootCause}, simclock.Millisecond)
		}
	}
	rows := rep.Entries()
	if len(rows) != len(ids) {
		t.Fatalf("report holds %d rows for %d identities", len(rows), len(ids))
	}
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.Hangs < b.Hangs || (a.Hangs == b.Hangs && fieldwise(a, b) >= 0) {
			t.Fatalf("rows %d and %d out of order", i-1, i)
		}
	}
}

// TestMergeKeepsJoinedKeyTwinsApart: two identities whose fields join to
// the same string are two rows, whichever arrives first, through every
// merge path and both wire formats, so merge stays commutative on them.
func TestMergeKeepsJoinedKeyTwinsApart(t *testing.T) {
	one := func(app, action string) *Report {
		r := NewReport()
		r.Add(app, "device-"+app, action, Diagnosis{RootCause: "r", File: "R.java", Line: 1}, simclock.Millisecond)
		return r
	}
	a, b := one("a\x00b", "c"), one("a", "b\x00c")
	ab, ba := FoldReports(a, b), FoldReports(b, a)
	if ab.Len() != 2 || !bytes.Equal(exportJSON(t, ab), exportJSON(t, ba)) {
		t.Fatalf("merge order changed the report of two joined-key twins:\n%s\nvs\n%s", exportJSON(t, ab), exportJSON(t, ba))
	}
	imported, err := ImportReport(bytes.NewReader(exportJSON(t, ab)))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Report{
		"binary":      decodeBinary(t, ab).Report(),
		"JSON":        imported,
		"RefreshKeys": NewReport().RefreshKeys(ab.Entries(), b, a),
	} {
		if !reflect.DeepEqual(r, ab) {
			t.Errorf("%s differs from FoldReports:\n%s\nwant\n%s", name, exportJSON(t, r), exportJSON(t, ab))
		}
	}
}

// TestAddRepeatAllocs: recording a repeated hang from a device its entry
// already holds hashes the identity without building a key, so it
// allocates at most the one-device list it merges.
func TestAddRepeatAllocs(t *testing.T) {
	r := NewReport()
	diag := Diagnosis{RootCause: "com.example.Op.run", File: "Op.java", Line: 3}
	r.Add("app", "device-1", "app/Action", diag, simclock.Millisecond)
	if n := testing.AllocsPerRun(100, func() {
		r.Add("app", "device-1", "app/Action", diag, simclock.Millisecond)
	}); n > 1 {
		t.Errorf("Add of a repeated hang allocates %v objects, want at most 1", n)
	}
	if r.Len() != 1 || r.Entries()[0].Devices.Len() != 1 {
		t.Fatalf("report holds %d entries, the first with %d devices; want 1 and 1", r.Len(), r.Entries()[0].Devices.Len())
	}
}

// TestEntriesAllocsConstant: sorting builds no keys, so Entries allocates
// the same few objects whatever the entry count.
func TestEntriesAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		rep := NewReport()
		for i := 0; i < n; i++ {
			// Equal hang counts everywhere: every comparison is a tie-break.
			rep.Add("app", "device", fmt.Sprintf("action-%d", i%7), Diagnosis{RootCause: fmt.Sprintf("root-%d", i)}, simclock.Millisecond)
		}
		return testing.AllocsPerRun(20, func() { rep.Entries() })
	}
	small, large := allocs(8), allocs(4096)
	if small != large || large > 2 {
		t.Errorf("Entries allocates %.0f objects at 8 entries and %.0f at 4096, want the same small constant", small, large)
	}
}
