package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hangdoctor/internal/simclock"
)

// joinedKeyLess is the reference tie-break of Report.Entries: the order of
// the joined entry keys.
func joinedKeyLess(a, b *ReportEntry) bool {
	return entryKey(a.App, a.ActionUID, a.RootCause) < entryKey(b.App, b.ActionUID, b.RootCause)
}

// TestEntriesOrderMatchesJoinedKey: compareEntryKeys agrees with comparing
// the joined keys, on fields drawn from a small alphabet with the \x00
// separator and shared prefixes — exactly where a field-by-field compare
// would disagree.
func TestEntriesOrderMatchesJoinedKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	field := func() string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteByte("a\x00b"[rng.Intn(3)])
		}
		return b.String()
	}
	entry := func() *ReportEntry {
		return &ReportEntry{App: field(), ActionUID: field(), RootCause: field()}
	}
	for i := 0; i < 20000; i++ {
		a, b := entry(), entry()
		want := 0
		switch {
		case joinedKeyLess(a, b):
			want = -1
		case joinedKeyLess(b, a):
			want = 1
		}
		if got := compareEntryKeys(a, b); got != want {
			t.Fatalf("compareEntryKeys(%q, %q) = %d, joined keys say %d",
				entryKey(a.App, a.ActionUID, a.RootCause), entryKey(b.App, b.ActionUID, b.RootCause), got, want)
		}
	}

	// Whole reports: Entries orders hang-count ties like the joined keys.
	rep := NewReport()
	for i := 0; i < 500; i++ {
		e := entry()
		rep.Add(e.App, "device", e.ActionUID, Diagnosis{RootCause: e.RootCause}, simclock.Millisecond)
	}
	rows := rep.Entries()
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.Hangs < b.Hangs || (a.Hangs == b.Hangs && !joinedKeyLess(a, b)) {
			t.Fatalf("rows %d and %d out of order", i-1, i)
		}
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
