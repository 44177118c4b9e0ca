package core

import (
	"fmt"
	"sort"
	"strings"

	"hangdoctor/internal/detect"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/stats"
)

// maxReservoir bounds per-action response-time samples; beyond it, samples
// are replaced reservoir-style so long deployments stay O(1) per action.
const maxReservoir = 512

// ActionStats summarizes one action's responsiveness over the deployment.
type ActionStats struct {
	ActionUID string
	// Executions counts every observed execution; Hangs counts those above
	// the perceivable delay.
	Executions int
	Hangs      int
	// reservoir holds response-time samples in milliseconds.
	reservoir []float64
	seen      int
	// sorted caches the reservoir in ascending order for Percentile;
	// Record invalidates it. The backing array persists across re-sorts,
	// so once the reservoir is full a dashboard render allocates nothing
	// no matter how many percentiles it asks for.
	sorted      []float64
	sortedValid bool
}

// HangRate returns the fraction of executions that were soft hangs.
func (s *ActionStats) HangRate() float64 {
	if s.Executions == 0 {
		return 0
	}
	return float64(s.Hangs) / float64(s.Executions)
}

// Percentile returns the q-quantile of observed response times in
// milliseconds (0 if nothing recorded).
func (s *ActionStats) Percentile(q float64) float64 {
	if len(s.reservoir) == 0 {
		return 0
	}
	if !s.sortedValid {
		s.sorted = append(s.sorted[:0], s.reservoir...)
		sort.Float64s(s.sorted)
		s.sortedValid = true
	}
	return stats.SortedQuantile(s.sorted, q)
}

// Telemetry tracks per-action responsiveness across a deployment — the
// statistics view of the Hang Bug Report dashboard (§3.2 "allows to view
// statistical information about the app responsiveness performance in the
// wild"). The Doctor feeds it on every action execution, hang or not.
type Telemetry struct {
	actions map[string]*ActionStats
	// rngState drives reservoir replacement deterministically without an
	// external RNG dependency (splitmix64 step).
	rngState uint64
	// Health is the degraded-operation summary the owning Doctor keeps in
	// sync; it stays zero (and invisible in Render) on a perfect
	// measurement plane.
	Health Health
}

// NewTelemetry builds an empty telemetry store.
func NewTelemetry() *Telemetry {
	return &Telemetry{
		actions:  map[string]*ActionStats{},
		rngState: 0x9e3779b97f4a7c15,
	}
}

// Record adds one execution's response time.
func (t *Telemetry) Record(actionUID string, rt simclock.Duration) {
	s, ok := t.actions[actionUID]
	if !ok {
		s = &ActionStats{ActionUID: actionUID}
		t.actions[actionUID] = s
	}
	s.Executions++
	if rt > detect.PerceivableDelay {
		s.Hangs++
	}
	ms := rt.Milliseconds()
	s.seen++
	if len(s.reservoir) < maxReservoir {
		s.reservoir = append(s.reservoir, ms)
		s.sortedValid = false
		return
	}
	// Reservoir sampling: replace a uniformly random slot with probability
	// maxReservoir/seen.
	t.rngState += 0x9e3779b97f4a7c15
	z := t.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	idx := int(z % uint64(s.seen))
	if idx < maxReservoir {
		s.reservoir[idx] = ms
		s.sortedValid = false
	}
}

// Actions returns all stats sorted by hang rate descending.
func (t *Telemetry) Actions() []*ActionStats {
	out := make([]*ActionStats, 0, len(t.actions))
	for _, s := range t.actions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].HangRate() != out[j].HangRate() {
			return out[i].HangRate() > out[j].HangRate()
		}
		return out[i].ActionUID < out[j].ActionUID
	})
	return out
}

// Render formats the responsiveness dashboard.
func (t *Telemetry) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %8s %8s %9s %9s %9s\n",
		"Action", "Execs", "HangRate", "P50", "P95", "P99")
	for _, s := range t.Actions() {
		fmt.Fprintf(&b, "%-40s %8d %7.0f%% %8.0fms %8.0fms %8.0fms\n",
			s.ActionUID, s.Executions, 100*s.HangRate(),
			s.Percentile(0.50), s.Percentile(0.95), s.Percentile(0.99))
	}
	if !t.Health.Zero() {
		fmt.Fprintf(&b, "\nDegraded-mode health: %s\n", t.Health)
	}
	return b.String()
}

// Telemetry returns the doctor's responsiveness dashboard, stamped with the
// current degraded-operation health.
func (d *Doctor) Telemetry() *Telemetry {
	if d.telemetry == nil {
		d.telemetry = NewTelemetry()
	}
	d.telemetry.Health = d.health
	return d.telemetry
}
