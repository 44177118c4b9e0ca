// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.2 and §4) on the simulated corpus: one harness per
// artifact, each returning a Result whose Render output mirrors the rows or
// series the paper prints. The cmd/experiments binary and the repository's
// benchmarks drive these harnesses; EXPERIMENTS.md records paper-reported
// versus measured values.
package experiments

import (
	"fmt"
	"strings"

	"hangdoctor/internal/corpus"
	"hangdoctor/internal/experiments/pool"
	"hangdoctor/internal/simclock"
)

// Result is one regenerated artifact; the registry names it.
type Result interface {
	// Render returns the artifact as a text table/series.
	Render() string
}

// Scale sizes an experiment run. The paper's field study is 20 users for 60
// days; simulated runs trade that for bounded trace lengths that preserve
// every effect (each bug manifests many times at any of these scales).
type Scale struct {
	// TracePerApp is the number of user actions per app trace.
	TracePerApp int
	// Think is the idle gap between actions.
	Think simclock.Duration
	// SamplesPerItem is the per-training-item sample count for the
	// correlation analyses.
	SamplesPerItem int
	// Users is the number of simulated devices in field-study experiments.
	Users int
}

// SmallScale is sized for unit tests (seconds of wall time).
func SmallScale() Scale {
	return Scale{TracePerApp: 90, Think: simclock.Second, SamplesPerItem: 6, Users: 4}
}

// FullScale is sized for the cmd/experiments binary and benchmarks.
func FullScale() Scale {
	return Scale{TracePerApp: 240, Think: simclock.Second, SamplesPerItem: 10, Users: 12}
}

// Context carries the shared inputs of all experiments, plus baseline
// snapshots taken before any Hang Doctor run: HD's feedback loop extends
// the shared known-blocking database at runtime, so "missed by offline
// detection" must be evaluated against the database as it was shipped.
type Context struct {
	Corpus *corpus.Corpus
	Seed   uint64
	Scale  Scale

	// Parallel is the worker count sweep-style experiments fan per-app work
	// units out across: 0 means one worker per CPU (pool.DefaultWorkers), 1
	// forces the serial path. Every unit derives its RNG from (seed, unit
	// identity) and results merge in unit order, so rendered artifacts are
	// byte-identical at any setting (DESIGN.md §8).
	Parallel int

	// BaselineMissedOffline is the set of bug IDs invisible to offline
	// scanning before any feedback (the paper's MO column / validation set).
	BaselineMissedOffline map[string]bool
	// Training is the §3.3.1 training set, fixed at context creation.
	Training []TrainingItem
}

// NewContext builds a context over the shared memoized corpus. The corpus's
// known-blocking database is reset to its shipped snapshot by
// corpus.Shared, so the context starts from exactly the state a freshly
// built corpus would give it.
func NewContext(seed uint64, scale Scale) *Context {
	return NewContextWith(corpus.Shared(), seed, scale)
}

// NewContextWith builds a context over an injected corpus. Tests and
// benches that mutate corpus state beyond the known-blocking database pass
// their own corpus.Build() here; everything else shares the memoized
// corpus via NewContext. Baseline snapshots are taken from the corpus as
// passed.
func NewContextWith(c *corpus.Corpus, seed uint64, scale Scale) *Context {
	ctx := &Context{Corpus: c, Seed: seed, Scale: scale,
		BaselineMissedOffline: map[string]bool{}}
	for _, b := range c.MissedOfflineBugs() {
		ctx.BaselineMissedOffline[b.ID] = true
	}
	ctx.Training = TrainingSet(c)
	return ctx
}

// Workers resolves the effective fan-out width for this context.
func (c *Context) Workers() int {
	if c.Parallel > 0 {
		return c.Parallel
	}
	return pool.DefaultWorkers()
}

// TextTable renders aligned rows for terminal output.
type TextTable struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row.
func (t *TextTable) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table with column alignment.
func (t *TextTable) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func itoa(v int) string { return fmt.Sprintf("%d", v) }
