package experiments

import (
	"fmt"
	"strings"

	"hangdoctor/internal/core"
)

// Fig2b reproduces the paper's Figure 2(b): Hang Bug Report entries for
// AndStatus aggregated across user devices, ordered by occurrence share.
type Fig2b struct {
	Text   string
	Report *core.Report
	// TopRoots are the root causes in report order.
	TopRoots []string
}

// Name implements Result.
func (f *Fig2b) Name() string { return "fig2b" }

// Render implements Result.
func (f *Fig2b) Render() string { return f.Text }

// RunFig2b runs AndStatus on several simulated user devices and merges the
// per-device reports, the paper's fleet aggregation.
func RunFig2b(ctx *Context) (*Fig2b, error) {
	a := ctx.Corpus.MustApp("AndStatus")
	merged := core.NewReport()
	for u := 0; u < ctx.Scale.Users; u++ {
		d := core.New(core.Config{})
		// Each simulated user drives their own trace; the doctor labels
		// entries with the device, so the merge counts distinct devices.
		dev := appDevice()
		dev.Name = fmt.Sprintf("user-%02d", u)
		if _, err := runOn(ctx, a, dev, uint64(300+u), d); err != nil {
			return nil, err
		}
		merged.Merge(d.Report())
	}
	out := &Fig2b{Report: merged}
	for _, e := range merged.Entries() {
		out.TopRoots = append(out.TopRoots, e.RootCause)
	}
	var b strings.Builder
	b.WriteString("== Figure 2(b): Hang Bug Report, AndStatus, aggregated across devices ==\n")
	b.WriteString(merged.Render())
	b.WriteString("paper: three entries (e.g. transform) with 75/15/10% occurrence shares across 74/67/64% of devices\n")
	out.Text = b.String()
	return out, nil
}
