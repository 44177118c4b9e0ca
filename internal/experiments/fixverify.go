package experiments

import (
	"fmt"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/detect"
)

// FixVerifyRow compares one app before and after fixing one bug.
type FixVerifyRow struct {
	BugID string
	// BugHangsBefore/After count soft hangs attributable to the fixed bug's
	// action (the ones users would stop seeing).
	BugHangsBefore, BugHangsAfter int
	// UIHangsBefore/After verify the fix didn't suppress legitimate UI work.
	UIHangsBefore, UIHangsAfter int
	// MeanResponseBefore/After on the buggy action, milliseconds.
	MeanRTBeforeMs, MeanRTAfterMs float64
}

// FixVerify reproduces the paper's §4.2 validation methodology: for issues
// with no developer response, the authors fixed the diagnosed bug themselves
// (moving the blocking call to a worker thread) and verified the modified
// app showed no more soft hangs from that cause.
type FixVerify struct {
	Table TextTable
	Rows  []FixVerifyRow
}

// Render implements Result.
func (f *FixVerify) Render() string { return f.Table.Render() }

// fixVerifyTargets are representative diagnosed bugs to fix: one per
// signature archetype.
var fixVerifyTargets = []struct{ appName, bugID string }{
	{"K9-Mail", "K9-Mail/1007-clean"},
	{"Omni-Notes", "Omni-Notes/253-getNotes"},
	{"AndStatus", "AndStatus/303-transform"},
	{"QKSMS", "QKSMS/382-formatThread"},
}

// RunFixVerify measures each app before and after the fix on identical
// traces.
func RunFixVerify(ctx *Context) (*FixVerify, error) {
	out := &FixVerify{Table: TextTable{
		Title: "Fix verification: soft hangs before/after moving the bug off the main thread",
		Header: []string{"Bug", "bug hangs before", "after",
			"UI hangs before", "after", "mean RT before", "after"},
	}}
	for i, tgt := range fixVerifyTargets {
		orig := ctx.Corpus.MustApp(tgt.appName)
		fixedApp, err := corpus.FixedApp(orig, tgt.bugID)
		if err != nil {
			return nil, err
		}
		var bugAction *app.Action
		for _, b := range orig.Bugs {
			if b.ID == tgt.bugID {
				bugAction = b.Action
			}
		}
		row := FixVerifyRow{BugID: tgt.bugID}
		measure := func(a *app.App, bugHangs, uiHangs *int, meanMs *float64) error {
			s, err := app.NewSession(a, appDevice(), ctx.Seed+uint64(4000+i))
			if err != nil {
				return err
			}
			// Drive the same action names on both variants.
			var rtSum float64
			var rtN int
			for _, act := range corpus.Trace(orig, ctx.Seed+uint64(4000+i), ctx.Scale.TracePerApp) {
				target := a.MustAction(act.Name)
				exec := s.Perform(target)
				s.Idle(ctx.Scale.Think)
				hang := exec.ResponseTime() > detect.PerceivableDelay
				if act.Name == bugAction.Name {
					rtSum += exec.ResponseTime().Milliseconds()
					rtN++
					if hang {
						if exec.BugCaused(detect.PerceivableDelay) != nil {
							*bugHangs++
						} else {
							*uiHangs++
						}
					}
				} else if hang && exec.BugCaused(detect.PerceivableDelay) == nil {
					*uiHangs++
				}
			}
			if rtN > 0 {
				*meanMs = rtSum / float64(rtN)
			}
			return nil
		}
		if err := measure(orig, &row.BugHangsBefore, &row.UIHangsBefore, &row.MeanRTBeforeMs); err != nil {
			return nil, err
		}
		if err := measure(fixedApp, &row.BugHangsAfter, &row.UIHangsAfter, &row.MeanRTAfterMs); err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
		out.Table.Add(row.BugID,
			itoa(row.BugHangsBefore), itoa(row.BugHangsAfter),
			itoa(row.UIHangsBefore), itoa(row.UIHangsAfter),
			fmt.Sprintf("%.0fms", row.MeanRTBeforeMs), fmt.Sprintf("%.0fms", row.MeanRTAfterMs))
	}
	out.Table.Notes = append(out.Table.Notes,
		"paper §4.2: 'in all the cases, the modified app did not show any more soft hangs' from the fixed cause")
	return out, nil
}
