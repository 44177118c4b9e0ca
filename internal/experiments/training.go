package experiments

import (
	"fmt"
	"sort"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/cpu"
	"hangdoctor/internal/detect"
	"hangdoctor/internal/experiments/pool"
	"hangdoctor/internal/perf"
	"hangdoctor/internal/simclock"
)

// TrainingItem is one entry of the §3.3.1 training set: either a well-known
// soft hang bug (detected by offline tools) or a UI-API-heavy action.
type TrainingItem struct {
	App    *app.App
	Action *app.Action
	// BugID is non-empty for bug items (matched against ground truth when
	// selecting samples).
	BugID string
	Label string
}

// IsBug reports whether the item is a soft-hang-bug item.
func (ti TrainingItem) IsBug() bool { return ti.BugID != "" }

// TrainingSet assembles the paper's training set: 10 of the 11 well-known
// (offline-visible) Table-5 bugs plus 11 UI-heavy actions from across the
// corpus.
func TrainingSet(c *corpus.Corpus) []TrainingItem {
	var items []TrainingItem
	known := c.KnownBugs()
	sort.Slice(known, func(i, j int) bool { return known[i].ID < known[j].ID })
	if len(known) > 10 {
		known = known[:10]
	}
	for _, b := range known {
		items = append(items, TrainingItem{
			App: b.App, Action: b.Action, BugID: b.ID, Label: b.ID,
		})
	}
	uiActions := []struct{ app, action string }{
		{"K9-Mail", "Folders"},
		{"K9-Mail", "Inbox"},
		{"DashClock", "Open Settings"},
		{"DroidWall", "App List"},
		{"FrostWire", "Transfers"},
		{"Ushaidi", "Map View"},
		{"WebSMS", "Compose"},
		{"cgeo", "Nearby List"},
		{"Seadroid", "File List"},
		{"FBReaderJ", "Bookmarks"},
		{"A Better Camera", "Gallery"},
	}
	for _, ua := range uiActions {
		a := c.MustApp(ua.app)
		items = append(items, TrainingItem{
			App: a, Action: a.MustAction(ua.action),
			Label: ua.app + "/" + ua.action + " (UI)",
		})
	}
	return items
}

// SampleSet holds per-event sample vectors for the correlation analyses,
// in both thread-selection modes of Table 3.
type SampleSet struct {
	// Diff[name][k] is sample k of the main-minus-render difference of the
	// event; MainOnly is the main-thread-only reading.
	Diff     map[string][]float64
	MainOnly map[string][]float64
	// Labels[k] is 1 for a soft-hang-bug sample, 0 for a UI sample.
	Labels []float64
	// Items[k] names the training item sample k came from.
	Items []string
}

// Len returns the number of samples.
func (s *SampleSet) Len() int { return len(s.Labels) }

// CollectSamples runs each training item until perItem soft hangs of the
// right cause have been observed (bounded tries), measuring all 46
// performance events over each action window — the data collection behind
// Tables 3 and 4 and Figure 4. Items fan out across workers goroutines
// (0 = one per CPU): each item's session is seeded by (seed, item app)
// alone, and per-item sample vectors merge back in item order, so the
// result is identical at any worker count.
func CollectSamples(c *corpus.Corpus, items []TrainingItem, perItem int, seed uint64, workers int) (*SampleSet, error) {
	events := perf.AllEvents()
	// diff[k]/mainOnly[k] are indexed like events; labels hold one entry
	// per collected sample of this item.
	type itemSamples struct {
		diff, mainOnly [][]float64
		labels         []float64
	}
	units, err := pool.Map(workers, len(items), func(i int) (itemSamples, error) {
		it := items[i]
		u := itemSamples{
			diff:     make([][]float64, len(events)),
			mainOnly: make([][]float64, len(events)),
		}
		s, err := app.NewSession(it.App, app.LGV10(), seed)
		if err != nil {
			return itemSamples{}, err
		}
		collected := 0
		for try := 0; try < perItem*8 && collected < perItem; try++ {
			ps := perf.Open(s.Clk, []*cpu.Thread{s.MainThread(), s.RenderThread()}, events, s.PerfConfig())
			exec := s.Perform(it.Action)
			reading := ps.Stop()
			s.Idle(simclock.Second)
			if exec.ResponseTime() <= detect.PerceivableDelay {
				continue
			}
			bug := exec.BugCaused(detect.PerceivableDelay)
			if it.IsBug() {
				if bug == nil || bug.ID != it.BugID {
					continue
				}
			} else if bug != nil {
				continue
			}
			for k, e := range events {
				u.diff[k] = append(u.diff[k], float64(reading.Diff(e)))
				u.mainOnly[k] = append(u.mainOnly[k], float64(reading.Value(0, e)))
			}
			if it.IsBug() {
				u.labels = append(u.labels, 1)
			} else {
				u.labels = append(u.labels, 0)
			}
			collected++
		}
		if collected == 0 {
			return itemSamples{}, fmt.Errorf("experiments: training item %s never produced a qualifying hang", it.Label)
		}
		return u, nil
	})
	if err != nil {
		return nil, err
	}
	set := &SampleSet{
		Diff:     map[string][]float64{},
		MainOnly: map[string][]float64{},
	}
	for i, u := range units {
		for k, e := range events {
			set.Diff[e.Name()] = append(set.Diff[e.Name()], u.diff[k]...)
			set.MainOnly[e.Name()] = append(set.MainOnly[e.Name()], u.mainOnly[k]...)
		}
		set.Labels = append(set.Labels, u.labels...)
		for range u.labels {
			set.Items = append(set.Items, items[i].Label)
		}
	}
	return set, nil
}
