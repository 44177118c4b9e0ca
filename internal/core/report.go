package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"hangdoctor/internal/simclock"
)

// ReportEntry is one row of the Hang Bug Report (Figure 2(b)): a diagnosed
// root cause with its spread across soft hangs and devices. Its App,
// ActionUID and RootCause are its identity: a report holds one entry per
// identity, and merging never changes them.
type ReportEntry struct {
	App       string
	ActionUID string
	RootCause string
	File      string
	Line      int
	// ViaCaller marks self-developed aggregate operations.
	ViaCaller bool
	// Hangs is the number of diagnosed soft hangs attributed to this cause.
	Hangs int
	// Devices is the set of devices/users that reported it.
	Devices DeviceSet
	// MaxResponse and SumResponse summarize observed hang lengths.
	MaxResponse simclock.Duration
	SumResponse simclock.Duration
	// Chain is the causal chain the diagnosis travelled through, nil for
	// plain main-thread diagnoses. Like Devices it never changes once
	// built, so entries share it; merges fold it componentwise.
	Chain *CausalChain
}

// The report algebra. Every path that builds, copies or combines entries
// goes through empty and merge, so a new ReportEntry field is merged in
// exactly one place (TestReportAlgebraLaws fails on a field merge ignores).
// A clone is a merge into an empty entry; entryTrie.newLeaf (trie.go)
// builds one in place in a new trie leaf.

// empty returns a new entry with e's identity and source location and
// nothing counted: merging e into it yields e.
func (e *ReportEntry) empty() *ReportEntry {
	return &ReportEntry{
		App: e.App, ActionUID: e.ActionUID, RootCause: e.RootCause,
		File: e.File, Line: e.Line, ViaCaller: e.ViaCaller,
	}
}

// sameID reports whether e and o have the same identity.
func (e *ReportEntry) sameID(o *ReportEntry) bool {
	return e.App == o.App && e.ActionUID == o.ActionUID && e.RootCause == o.RootCause
}

// satAdd returns a+b for non-negative a and b, or T's largest value where
// the sum would wrap: still a commutative monoid, and never a negative sum
// that no decoder accepts.
func satAdd[T ~int | ~int64](a, b T) T {
	if s := a + b; s >= a {
		return s
	}
	return ^(T(1) << (8*unsafe.Sizeof(a) - 1)) // the complement of T's smallest value
}

// merge folds src into e: hang counts and response sums add (saturating,
// by satAdd), the larger maximum wins, device sets union and chains fold
// by foldChain. Devices may disagree on where a root cause lives, so the
// smallest (File, Line) wins and ViaCaller holds if either side set it.
// src's devices are src.Devices plus devs, the list form decoded documents
// carry, in any order and possibly repeated, so they merge without
// building a set first; devs is not retained.
func (e *ReportEntry) merge(src *ReportEntry, devs []string) {
	if src.File < e.File || src.File == e.File && src.Line < e.Line {
		e.File, e.Line = src.File, src.Line
	}
	e.ViaCaller = e.ViaCaller || src.ViaCaller
	e.Hangs = satAdd(e.Hangs, src.Hangs)
	e.SumResponse = satAdd(e.SumResponse, src.SumResponse)
	if src.MaxResponse > e.MaxResponse {
		e.MaxResponse = src.MaxResponse
	}
	e.Chain = foldChain(e.Chain, src.Chain)
	e.Devices = e.Devices.union(src.Devices).with(devs)
}

// DeviceSet is the set of devices that reported an entry: their IDs in
// ascending order, each once. A set never changes once built: adding a
// device builds a new backing array, so entries, trie versions and wire
// views share sets freely, and copying an entry copies no device. The zero
// value is the empty set, its only representation. A device whose name
// arrives as the very string the set holds is found by that string's
// identity, reading no name bytes; finding it under another string, or
// adding a device to a set of n, costs O(n), which suits the few dozen
// devices an entry holds at most; very large sets would want a sketch
// instead.
type DeviceSet struct {
	ids []string // ascending, no repeats; nil when empty
}

// Len returns the number of devices in s.
func (s DeviceSet) Len() int { return len(s.ids) }

// union returns s ∪ o, which is s or o itself where the other adds no
// device: merging devices a set already holds allocates nothing.
func (s DeviceSet) union(o DeviceSet) DeviceSet { return DeviceSet{unionSorted(s.ids, o.ids, true)} }

// with returns s plus the devices listed in devs, in any order and
// possibly repeated. devs is not retained, so its owner may reuse it. A
// one-device list, which every upload entry carries, returns s before any
// name is compared when s holds that very string.
func (s DeviceSet) with(devs []string) DeviceSet {
	if len(devs) == 1 && s.holdsString(devs[0]) {
		return s
	}
	for i := 1; i < len(devs); i++ {
		if devs[i-1] >= devs[i] {
			norm := slices.Clone(devs)
			slices.Sort(norm)
			return DeviceSet{unionSorted(s.ids, slices.Clip(slices.Compact(norm)), true)}
		}
	}
	return DeviceSet{unionSorted(s.ids, devs, false)}
}

// holdsString reports whether s holds d's own string: an ID with d's data
// pointer and length, and so, strings being immutable, d's bytes. It
// reads no name bytes, so it hits where names are shared: the simulator
// interns them, and a device's decoder resolves its name to one
// dictionary string while the decoder lives. A miss says nothing: s may
// hold an equal name at another address. A set keeps the string it got
// first, so after an encoder reset, a dictionary eviction or a node
// restart, and for JSON uploads, a returning device misses every time
// and costs one extra pass over the set's string headers.
func (s DeviceSet) holdsString(d string) bool {
	p := unsafe.StringData(d)
	for _, id := range s.ids {
		if unsafe.StringData(id) == p && len(id) == len(d) {
			return true
		}
	}
	return false
}

// unionSorted returns the union of a and b, each ascending without
// repeats, in two linear passes: one counts the union, one fills it. It is
// a itself when b adds nothing to it, b itself when a adds nothing to b
// and share allows keeping b, and otherwise a new array of exactly the
// union's length.
func unionSorted(a, b []string, share bool) []string {
	n := len(a) + len(b)
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			n, i, j = n-1, i+1, j+1
		}
	}
	switch {
	case n == len(a):
		return a
	case n == len(b) && share:
		return b
	}
	out := make([]string, 0, n)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := strings.Compare(a[i], b[j]); {
		case c < 0:
			out, i = append(out, a[i]), i+1
		case c > 0:
			out, j = append(out, b[j]), j+1
		default:
			out, i, j = append(out, a[i]), i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Report is the developer-facing Hang Bug Report: "a table of detected soft
// hang bugs ordered by the percentage of occurrences across user devices"
// (§3.2). Reports from many devices merge into one fleet view.
type Report struct {
	entries entryTrie
	// totalHangs counts all diagnosed bug hangs, the denominator of the
	// occurrence percentage column.
	totalHangs int
	// Health summarizes how degraded the measurement plane was while this
	// report was collected; fleet merges sum it across devices. It stays
	// zero — and invisible in Render and Export — on a perfect plane.
	Health Health
}

// NewReport returns an empty report.
func NewReport() *Report { return &Report{} }

// Add records one diagnosed soft hang.
func (r *Report) Add(appName, device, actionUID string, diag Diagnosis, rt simclock.Duration) {
	r.AddChained(appName, device, actionUID, diag, CausalChain{}, rt)
}

// AddChained records one diagnosed soft hang together with the causal chain
// it was attributed through (Add with a zero chain).
func (r *Report) AddChained(appName, device, actionUID string, diag Diagnosis, chain CausalChain, rt simclock.Duration) {
	r.addHang(new(hangBuf), appName, device, actionUID, diag, chain, rt)
}

// hangBuf holds the device list and the chain of a hang addHang merges.
// A caller that records hang after hang, the Doctor, keeps one, so that
// recording a hang whose entry exists, and whose chain folds to the
// entry's own, allocates nothing.
type hangBuf struct {
	dev   [1]string
	chain CausalChain
}

// addHang is AddChained through buf.
func (r *Report) addHang(buf *hangBuf, appName, device, actionUID string, diag Diagnosis, chain CausalChain, rt simclock.Duration) {
	hang := ReportEntry{
		App: appName, ActionUID: actionUID, RootCause: diag.RootCause,
		File: diag.File, Line: diag.Line, ViaCaller: diag.ViaCaller,
		Hangs: 1, MaxResponse: rt, SumResponse: rt,
	}
	if !chain.Zero() {
		buf.chain = chain
		hang.Chain = &buf.chain
	}
	buf.dev[0] = device
	if e := r.add(hashOf(&hang), &hang, buf.dev[:]); e.Chain == &buf.chain {
		// The entry took the hang's chain: it gets a copy of its own.
		e.Chain = chain.ref()
	}
}

// Merge folds other reports into r (the server-side aggregation of the
// field study).
func (r *Report) Merge(others ...*Report) {
	for _, o := range others {
		r.Health.Add(o.Health)
		o.entries.each(func(l *trieLeaf) { r.add(l.h, &l.entry, nil) })
	}
}

// add merges src, whose devices are src.Devices plus devs and whose
// identity hashes to h, into r's entry of that identity, creating the
// entry on first sight, and returns the entry. An entry r's trie does not
// own, which a snapshot may share, is copied first.
func (r *Report) add(h uint64, src *ReportEntry, devs []string) *ReportEntry {
	r.totalHangs = satAdd(r.totalHangs, src.Hangs)
	if e := r.entries.writable(h, src); e != nil {
		e.merge(src, devs)
		return e
	}
	e, _ := r.entries.bind(h, src, devs)
	return e
}

// Len returns the number of distinct root causes reported.
func (r *Report) Len() int { return r.entries.n }

// TotalHangs returns the number of diagnosed bug hangs across all entries.
func (r *Report) TotalHangs() int { return r.totalHangs }

// Entries returns rows ordered by occurrence share descending (ties by
// app, then action, then root cause, for determinism).
func (r *Report) Entries() []*ReportEntry {
	out := make([]*ReportEntry, 0, r.entries.n)
	r.entries.each(func(l *trieLeaf) { out = append(out, &l.entry) })
	slices.SortFunc(out, func(a, b *ReportEntry) int {
		if a.Hangs != b.Hangs {
			return cmp.Compare(b.Hangs, a.Hangs)
		}
		return compareEntryKeys(a, b)
	})
	return out
}

// compareEntryKeys orders two entries by their identities, field by
// field, and returns 0 only for the same identity.
func compareEntryKeys(a, b *ReportEntry) int {
	if c := strings.Compare(a.App, b.App); c != 0 {
		return c
	}
	if c := strings.Compare(a.ActionUID, b.ActionUID); c != 0 {
		return c
	}
	return strings.Compare(a.RootCause, b.RootCause)
}

// OccurrencePct returns an entry's share of all diagnosed hangs, the
// percentage column of Figure 2(b).
func (r *Report) OccurrencePct(e *ReportEntry) float64 {
	if r.totalHangs == 0 {
		return 0
	}
	return 100 * float64(e.Hangs) / float64(r.totalHangs)
}

// Render formats the report in the layout of Figure 2(b).
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-66s %8s %8s %8s %9s\n", "Root cause (file:line) @ action", "Hangs", "Share", "Devices", "MaxResp")
	for _, e := range r.Entries() {
		kind := ""
		if e.ViaCaller {
			kind = " [self-developed]"
		}
		fmt.Fprintf(&b, "%-66s %8d %7.0f%% %8d %9s\n",
			fmt.Sprintf("%s (%s:%d)%s @ %s", e.RootCause, e.File, e.Line, kind, e.ActionUID),
			e.Hangs, r.OccurrencePct(e), e.Devices.Len(), e.MaxResponse)
		if c := e.Chain; c != nil {
			// Causal rows get a provenance sub-line; plain rows render exactly
			// as before the causal extension.
			fmt.Fprintf(&b, "    via %s chain from %s at %s (%d permille of hang samples)\n",
				c.Kind, c.OriginAction, c.OriginSite, c.SharePermille)
		}
	}
	if !r.Health.Zero() {
		fmt.Fprintf(&b, "\nDegraded-mode health: %s\n", r.Health)
	}
	return b.String()
}
