package experiments

import (
	"fmt"
	"sort"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/core"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/experiments/pool"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
)

// LongitudinalDays is how many simulated days the fleet runs (the paper's
// field study ran 60; detection latencies converge much earlier).
const LongitudinalDays = 30

// BugLatency is the fleet-level detection latency of one bug.
type BugLatency struct {
	BugID string
	// FirstDay is the earliest simulated day (0-based) any user's doctor
	// confirmed the bug; -1 if never.
	FirstDay int
	// UsersFound is how many of the fleet's devices had confirmed it by the
	// end of the study.
	UsersFound int
}

// Longitudinal runs the paper's deployment model over simulated weeks: a
// small fleet of mixed-profile users lives with the buggy apps, and we
// measure how quickly Hang Doctor's two-phase pipeline converges on each
// bug in the wild — the "track the responsiveness performance of their apps
// in the wild" workflow of §3.1.
type Longitudinal struct {
	Table TextTable
	// Latencies per app/bug.
	Latencies []BugLatency
	Users     int
	Days      int
	// MedianFirstDay across bugs that were found.
	MedianFirstDay float64
}

// Render implements Result.
func (l *Longitudinal) Render() string { return l.Table.Render() }

// longitudinalApps keeps the study affordable while covering every bug
// signature.
var longitudinalApps = []string{"K9-Mail", "AndStatus", "Omni-Notes", "CycleStreets"}

// RunLongitudinal runs the fleet and computes per-bug detection latency.
func RunLongitudinal(ctx *Context) (*Longitudinal, error) {
	profiles := corpus.DefaultProfiles()
	users := ctx.Scale.Users
	if users < len(profiles) {
		users = len(profiles)
	}
	out := &Longitudinal{
		Users: users,
		Days:  LongitudinalDays,
		Table: TextTable{
			Title: fmt.Sprintf("Longitudinal field study: %d users, %d days", users, LongitudinalDays),
			Header: []string{"Bug", "fleet first (day)", "median device (day)",
				"devices", "manifest prob"},
		},
	}

	type bugStat struct {
		// deviceDays holds each finding device's first-detection day.
		deviceDays []float64
	}
	stats := map[string]*bugStat{}

	// Per-user environment richness: in the wild, whether a bug's trigger
	// state exists at all (a huge mailbox, a dense map region) varies per
	// user. A lognormal spread around ~0.15 puts the fleet in the rare-bug
	// regime where detection latency is the interesting quantity — and
	// where some devices legitimately never see some bugs (the <100% device
	// coverage of the paper's Figure 2(b)).
	richRng := simrand.New(ctx.Seed).Derive("longitudinal-richness")
	richness := make([]float64, users)
	for u := range richness {
		r := 0.15 * richRng.LogNormal(0, 0.8)
		if r > 1 {
			r = 1
		}
		if r < 0.02 {
			r = 0.02
		}
		richness[u] = r
	}

	// Flatten the fleet to one unit per (app, user) device-run. Each unit's
	// trace and session are seeded by (ctx.Seed, user) and richness is
	// precomputed above, so units are independent; per-bug day lists merge
	// below in the exact order the serial nested loop produced them.
	nApps := len(longitudinalApps)
	units, err := pool.Map(ctx.Workers(), nApps*users, func(k int) (map[string]float64, error) {
		appName := longitudinalApps[k/users]
		u := k % users
		a := ctx.Corpus.MustApp(appName)
		p := profiles[u%len(profiles)]
		seed := ctx.Seed + uint64(9000+u*31)
		trace := corpus.LongitudinalTrace(a, p, seed, LongitudinalDays)
		dev := appDevice()
		dev.EnvRichness = richness[u]
		s, err := app.NewSession(a, dev, seed)
		if err != nil {
			return nil, err
		}
		d := core.New(core.Config{})
		d.Attach(s)
		s.AddListener(d)
		corpus.RunLongitudinal(s, trace)
		days := map[string]float64{}
		for id, det := range matchDetections(a, d.Detections()) {
			days[id] = float64(det.FirstAt / simclock.Time(simclock.Day))
		}
		return days, nil
	})
	if err != nil {
		return nil, err
	}
	for _, days := range units {
		for id, day := range days {
			st, ok := stats[id]
			if !ok {
				st = &bugStat{}
				stats[id] = st
			}
			st.deviceDays = append(st.deviceDays, day)
		}
	}

	var ids []string
	for id := range stats {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var firstDays []float64
	manifestOf := func(id string) float64 {
		for _, b := range ctx.Corpus.Table5Bugs() {
			if b.ID == id {
				return b.Op.Manifest
			}
		}
		return 0
	}
	for _, id := range ids {
		st := stats[id]
		sort.Float64s(st.deviceDays)
		fleetFirst := int(st.deviceDays[0])
		medianDevice := st.deviceDays[len(st.deviceDays)/2]
		firstDays = append(firstDays, medianDevice)
		out.Latencies = append(out.Latencies, BugLatency{
			BugID: id, FirstDay: fleetFirst, UsersFound: len(st.deviceDays),
		})
		out.Table.Add(id, itoa(fleetFirst), fmt.Sprintf("%.0f", medianDevice),
			fmt.Sprintf("%d/%d", len(st.deviceDays), users), f2(manifestOf(id)))
	}
	if len(firstDays) > 0 {
		sort.Float64s(firstDays)
		out.MedianFirstDay = firstDays[len(firstDays)/2]
	}
	out.Table.Notes = append(out.Table.Notes,
		fmt.Sprintf("median per-device detection day across bugs: %.0f of %d; a single power user finds most bugs within the first days — the value of fleet-scale deployment", out.MedianFirstDay, LongitudinalDays),
		"the paper's 60-day study found all manifesting bugs; latency depends on action frequency and manifestation probability")
	return out, nil
}
