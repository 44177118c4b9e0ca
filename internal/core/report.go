package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"hangdoctor/internal/simclock"
)

// ReportEntry is one row of the Hang Bug Report (Figure 2(b)): a diagnosed
// root cause with its spread across soft hangs and devices.
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
	Devices map[string]bool
	// MaxResponse and SumResponse summarize observed hang lengths.
	MaxResponse simclock.Duration
	SumResponse simclock.Duration
	// Chain is the causal chain the diagnosis travelled through (zero for
	// plain main-thread diagnoses). Merges fold it componentwise.
	Chain CausalChain
}

// AvgResponse returns the mean diagnosed hang length.
func (e *ReportEntry) AvgResponse() simclock.Duration {
	if e.Hangs == 0 {
		return 0
	}
	return e.SumResponse / simclock.Duration(e.Hangs)
}

// The report algebra. Every path that builds, copies or combines entries
// goes through empty and merge, so a new ReportEntry field is merged in
// exactly one place (TestReportAlgebraLaws fails on a field merge ignores).
// A clone is a merge into an empty entry; cloneLeaf (trie.go) builds one
// in place in a new trie leaf.

// empty returns a new entry with e's key and source location and nothing
// counted: merging e into it yields e. n sizes its device set.
func (e *ReportEntry) empty(n int) *ReportEntry {
	return &ReportEntry{
		App: e.App, ActionUID: e.ActionUID, RootCause: e.RootCause,
		File: e.File, Line: e.Line, ViaCaller: e.ViaCaller,
		Devices: make(map[string]bool, n),
	}
}

// merge folds src into e: hang counts and response sums add, the larger
// maximum wins, device sets union and chains fold by mergeChain. Devices
// may disagree on where a root cause lives, so the smallest (File, Line)
// wins and ViaCaller holds if either side set it. src's devices are
// src.Devices plus devs, the list form decoded documents carry, so they
// merge without building a set first.
func (e *ReportEntry) merge(src *ReportEntry, devs []string) {
	if src.File < e.File || src.File == e.File && src.Line < e.Line {
		e.File, e.Line = src.File, src.Line
	}
	e.ViaCaller = e.ViaCaller || src.ViaCaller
	e.Hangs += src.Hangs
	e.SumResponse += src.SumResponse
	if src.MaxResponse > e.MaxResponse {
		e.MaxResponse = src.MaxResponse
	}
	e.Chain = mergeChain(e.Chain, src.Chain)
	for d := range src.Devices {
		e.Devices[d] = true
	}
	for _, d := range devs {
		e.Devices[d] = true
	}
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

func entryKey(appName, actionUID, root string) string {
	return appName + "\x00" + actionUID + "\x00" + root
}

// Add records one diagnosed soft hang.
func (r *Report) Add(appName, device, actionUID string, diag Diagnosis, rt simclock.Duration) {
	r.AddChained(appName, device, actionUID, diag, CausalChain{}, rt)
}

// AddChained records one diagnosed soft hang together with the causal chain
// it was attributed through (Add with a zero chain).
func (r *Report) AddChained(appName, device, actionUID string, diag Diagnosis, chain CausalChain, rt simclock.Duration) {
	hang := ReportEntry{
		App: appName, ActionUID: actionUID, RootCause: diag.RootCause,
		File: diag.File, Line: diag.Line, ViaCaller: diag.ViaCaller,
		Hangs: 1, MaxResponse: rt, SumResponse: rt, Chain: chain,
	}
	r.add(entryKey(appName, actionUID, diag.RootCause), &hang, []string{device})
}

// Merge folds other reports into r (the server-side aggregation of the
// field study).
func (r *Report) Merge(others ...*Report) {
	for _, o := range others {
		r.Health.Add(o.Health)
		o.entries.each(func(l *trieLeaf) { r.add(l.key, l.e, nil) })
	}
}

// add merges src, whose devices are src.Devices plus devs, into r's entry
// at key, creating that entry from src's identity on first sight.
func (r *Report) add(key string, src *ReportEntry, devs []string) {
	if e := r.entries.get(key); e != nil {
		e.merge(src, devs)
	} else {
		r.entries.bind(key, src, devs, 0)
	}
	r.totalHangs += src.Hangs
}

// Len returns the number of distinct root causes reported.
func (r *Report) Len() int { return r.entries.n }

// TotalHangs returns the number of diagnosed bug hangs across all entries.
func (r *Report) TotalHangs() int { return r.totalHangs }

// Entries returns rows ordered by occurrence share descending (ties by
// app/action/root for determinism).
func (r *Report) Entries() []*ReportEntry {
	out := make([]*ReportEntry, 0, r.entries.n)
	r.entries.each(func(l *trieLeaf) { out = append(out, l.e) })
	slices.SortFunc(out, func(a, b *ReportEntry) int {
		if a.Hangs != b.Hangs {
			return cmp.Compare(b.Hangs, a.Hangs)
		}
		return compareEntryKeys(a, b)
	})
	return out
}

// compareEntryKeys orders two entries as strings.Compare orders their
// joined keys entryKey(App, ActionUID, RootCause), without building them.
// A field may itself contain the \x00 separator (both import paths accept
// any string), and then a field-by-field compare would order some pairs
// differently, so each key is walked as the one byte string it joins to.
func compareEntryKeys(a, b *ReportEntry) int {
	ka := [...]string{a.App, "\x00", a.ActionUID, "\x00", a.RootCause}
	kb := [...]string{b.App, "\x00", b.ActionUID, "\x00", b.RootCause}
	var x, y string // the unread rest of the current part of each key
	i, j := 0, 0
	for {
		for x == "" && i < len(ka) {
			x, i = ka[i], i+1
		}
		for y == "" && j < len(kb) {
			y, j = kb[j], j+1
		}
		if x == "" || y == "" {
			return cmp.Compare(len(x), len(y)) // a key that ends first sorts first
		}
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		x, y = x[n:], y[n:]
	}
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
			e.Hangs, r.OccurrencePct(e), len(e.Devices), e.MaxResponse)
		if !e.Chain.Zero() {
			// Causal rows get a provenance sub-line; plain rows render exactly
			// as before the causal extension.
			fmt.Fprintf(&b, "    via %s chain from %s at %s (%d permille of hang samples)\n",
				e.Chain.Kind, e.Chain.OriginAction, e.Chain.OriginSite, e.Chain.SharePermille)
		}
	}
	if !r.Health.Zero() {
		fmt.Fprintf(&b, "\nDegraded-mode health: %s\n", r.Health)
	}
	return b.String()
}
