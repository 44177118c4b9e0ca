package core

import (
	"fmt"
	"sort"
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

// empty returns a new entry carrying only e's identity fields — the zero
// of merge for e's key. n sizes its device set.
func (e *ReportEntry) empty(n int) *ReportEntry {
	return &ReportEntry{
		App: e.App, ActionUID: e.ActionUID, RootCause: e.RootCause,
		File: e.File, Line: e.Line, ViaCaller: e.ViaCaller,
		Devices: make(map[string]bool, n),
	}
}

// merge folds src into e: hang counts and response sums add, the larger
// maximum wins, device sets union and chains fold by mergeChain. e keeps
// its own identity fields (first writer wins). src's devices are
// src.Devices plus devs, the list form decoded documents carry, so they
// merge without building a set first.
func (e *ReportEntry) merge(src *ReportEntry, devs []string) {
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

// clone returns a deep copy of e: a merge into an empty entry.
func (e *ReportEntry) clone() *ReportEntry {
	c := e.empty(len(e.Devices))
	c.merge(e, nil)
	return c
}

// Report is the developer-facing Hang Bug Report: "a table of detected soft
// hang bugs ordered by the percentage of occurrences across user devices"
// (§3.2). Reports from many devices merge into one fleet view.
type Report struct {
	entries map[string]*ReportEntry
	// totalHangs counts all diagnosed bug hangs, the denominator of the
	// occurrence percentage column.
	totalHangs int
	// Health summarizes how degraded the measurement plane was while this
	// report was collected; fleet merges sum it across devices. It stays
	// zero — and invisible in Render and Export — on a perfect plane.
	Health Health
}

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{entries: map[string]*ReportEntry{}}
}

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
		for key, oe := range o.entries {
			r.add(key, oe, nil)
		}
	}
}

// add merges src, whose devices are src.Devices plus devs, into r's entry
// at key, creating that entry from src's identity on first sight.
func (r *Report) add(key string, src *ReportEntry, devs []string) {
	e, ok := r.entries[key]
	if !ok {
		e = src.empty(len(src.Devices) + len(devs))
		r.entries[key] = e
	}
	e.merge(src, devs)
	r.totalHangs += src.Hangs
}

// Len returns the number of distinct root causes reported.
func (r *Report) Len() int { return len(r.entries) }

// TotalHangs returns the number of diagnosed bug hangs across all entries.
func (r *Report) TotalHangs() int { return r.totalHangs }

// Entries returns rows ordered by occurrence share descending (ties by
// app/action/root for determinism).
func (r *Report) Entries() []*ReportEntry {
	out := make([]*ReportEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hangs != out[j].Hangs {
			return out[i].Hangs > out[j].Hangs
		}
		ki := entryKey(out[i].App, out[i].ActionUID, out[i].RootCause)
		kj := entryKey(out[j].App, out[j].ActionUID, out[j].RootCause)
		return ki < kj
	})
	return out
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
