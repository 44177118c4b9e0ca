package experiments

import (
	"fmt"
	"sort"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/core"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/detect"
	"hangdoctor/internal/experiments/pool"
)

// matchDetections maps a doctor's detections onto ground-truth bugs of an
// app: a detection matches a bug when it names the bug's action and root
// cause.
func matchDetections(a *app.App, dets []*core.Detection) map[string]*core.Detection {
	out := map[string]*core.Detection{}
	for _, b := range a.Bugs {
		for _, det := range dets {
			if det.ActionUID == b.Action.UID && det.RootCause == b.RootCauseKey() {
				out[b.ID] = det
				break
			}
		}
	}
	return out
}

// runOn runs app a's standard trace, drawn at ctx.Seed+seedOffset, on a
// session of device dev seeded with the same value, with detector d
// attached, and returns the harness.
func runOn(ctx *Context, a *app.App, dev app.Device, seedOffset uint64, d detect.Detector) (*detect.Harness, error) {
	h, err := detect.NewHarness(a, dev, ctx.Seed+seedOffset, d)
	if err != nil {
		return nil, err
	}
	h.Run(corpus.Trace(a, ctx.Seed+seedOffset, ctx.Scale.TracePerApp), ctx.Scale.Think)
	return h, nil
}

// Table5 reproduces the paper's Table 5: per-app bugs detected by Hang
// Doctor (BD) and how many of them offline detection misses (MO), over the
// full 114-app corpus.
type Table5 struct {
	Table TextTable
	// Found maps bug ID -> true for bugs Hang Doctor diagnosed.
	Found map[string]bool
	// TotalBD and TotalMO are the table's bottom line (paper: 34 and 23).
	TotalBD, TotalMO int
	// SeededBD is the number of seeded bugs whose actions were exercised.
	SeededBD int
	// FalseApps counts clean apps where HD reported any bug (paper: none).
	FalseApps int
}

// Render implements Result.
func (t *Table5) Render() string { return t.Table.Render() }

// RunTable5 runs Hang Doctor over every app in the corpus.
func RunTable5(ctx *Context) (*Table5, error) {
	out := &Table5{
		Found: map[string]bool{},
		Table: TextTable{
			Title:  "Table 5: soft hang bugs found by Hang Doctor across the corpus",
			Header: []string{"App", "Commit", "Category", "Downloads", "BD", "MO"},
		},
	}
	table5Set := map[string]bool{}
	for _, a := range ctx.Corpus.Table5 {
		table5Set[a.Name] = true
	}
	// Each app runs in its own fully isolated session, so the corpus sweep
	// fans out across the shared worker pool; the only shared mutable state
	// is the known-blocking database, which is mutex-guarded and write-only
	// during detection. Per-app results are deterministic regardless of
	// scheduling; aggregation order is fixed by the apps slice.
	type appResult struct {
		matched    map[string]*core.Detection
		falseApp   bool
		detections int
	}
	apps := ctx.Corpus.Apps
	results, err := pool.Map(ctx.Workers(), len(apps), func(i int) (appResult, error) {
		a := apps[i]
		d := core.New(core.Config{})
		if _, err := runOn(ctx, a, appDevice(), uint64(i), d); err != nil {
			return appResult{}, err
		}
		return appResult{
			matched:    matchDetections(a, d.Detections()),
			falseApp:   len(a.Bugs) == 0 && len(d.Detections()) > 0,
			detections: len(d.Detections()),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	type row struct {
		app    *app.App
		bd, mo int
	}
	var rows []row
	motivationBugs := 0
	for i, a := range ctx.Corpus.Apps {
		res := results[i]
		bd, mo := 0, 0
		for id := range res.matched {
			out.Found[id] = true
			bd++
			if ctx.BaselineMissedOffline[id] {
				mo++
			}
		}
		if res.falseApp {
			out.FalseApps++
		}
		if !table5Set[a.Name] {
			motivationBugs += bd
			continue
		}
		if bd > 0 {
			rows = append(rows, row{app: a, bd: bd, mo: mo})
			out.TotalBD += bd
			out.TotalMO += mo
		}
	}
	out.SeededBD = len(ctx.Corpus.Table5Bugs())
	sort.Slice(rows, func(i, j int) bool { return rows[i].app.Name < rows[j].app.Name })
	for _, r := range rows {
		out.Table.Add(r.app.Name, r.app.Commit, r.app.Category, r.app.Downloads,
			itoa(r.bd), fmt.Sprintf("(%d)", r.mo))
	}
	out.Table.Add("TOTAL", "", "", "", itoa(out.TotalBD), fmt.Sprintf("(%d)", out.TotalMO))
	out.Table.Notes = append(out.Table.Notes,
		fmt.Sprintf("corpus seeds %d Table-5 bugs (23 missed offline); clean apps falsely reported: %d; motivation-app (Table 1) bugs also diagnosed: %d; paper: 34 bugs, 23 missed offline, 114 apps tested",
			out.SeededBD, out.FalseApps, motivationBugs))
	return out, nil
}

// Table6 reproduces the paper's Table 6: for each app with previously
// unknown (offline-missed) bugs, how many are recognized by each of
// S-Checker's three counters.
type Table6 struct {
	Table TextTable
	// PerApp[app] = [new bugs found, by ctx, by task-clock, by page-faults]
	PerApp map[string][4]int
	Total  [4]int
}

// Render implements Result.
func (t *Table6) Render() string { return t.Table.Render() }

// RunTable6 runs Hang Doctor on the validation apps and attributes each
// diagnosed unknown bug to the S-Checker symptoms that flagged it.
func RunTable6(ctx *Context) (*Table6, error) {
	out := &Table6{
		PerApp: map[string][4]int{},
		Table: TextTable{
			Title:  "Table 6: which performance events detect the previously unknown bugs",
			Header: []string{"App", "New bugs found", "context-switches", "task-clock", "page-faults"},
		},
	}
	byApp := map[string][]*app.Bug{}
	var appOrder []string
	for _, b := range ctx.Corpus.Table5Bugs() {
		if !ctx.BaselineMissedOffline[b.ID] {
			continue
		}
		if len(byApp[b.App.Name]) == 0 {
			appOrder = append(appOrder, b.App.Name)
		}
		byApp[b.App.Name] = append(byApp[b.App.Name], b)
	}
	sort.Strings(appOrder)
	conds := core.DefaultConditions()
	cells, err := pool.Map(ctx.Workers(), len(appOrder), func(i int) ([4]int, error) {
		name := appOrder[i]
		a := ctx.Corpus.MustApp(name)
		d := core.New(core.Config{})
		if _, err := runOn(ctx, a, appDevice(), 1000+uint64(i), d); err != nil {
			return [4]int{}, err
		}
		matched := matchDetections(a, d.Detections())
		var cell [4]int
		for _, b := range byApp[name] {
			det, ok := matched[b.ID]
			if !ok {
				continue
			}
			cell[0]++
			for _, si := range det.Symptoms {
				if si >= 0 && si < len(conds) {
					cell[1+si]++
				}
			}
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range appOrder {
		cell := cells[i]
		out.PerApp[name] = cell
		for k := range cell {
			out.Total[k] += cell[k]
		}
		out.Table.Add(name, itoa(cell[0]), itoa(cell[1]), itoa(cell[2]), itoa(cell[3]))
	}
	out.Table.Add("TOTAL", itoa(out.Total[0]), itoa(out.Total[1]), itoa(out.Total[2]), itoa(out.Total[3]))
	out.Table.Notes = append(out.Table.Notes,
		"paper: 23 new bugs; 18 recognized by context-switches, 12 by task-clock, 12 by page-faults; no counter alone suffices")
	return out, nil
}
