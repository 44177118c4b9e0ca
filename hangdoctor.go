// Package hangdoctor is a faithful Go reproduction of "Hang Doctor: Runtime
// Detection and Diagnosis of Soft Hangs for Smartphone Apps" (Brocanelli &
// Wang, EuroSys 2018), built on a deterministic simulation of the Android
// runtime the paper instruments.
//
// The package is the public facade over the internal subsystems:
//
//   - a discrete-event multicore scheduler, Android-style looper, render
//     thread, and performance-event counter model (the substrate);
//   - a 114-app corpus reproducing the paper's evaluation universe,
//     including the 16 Table-5 apps with their 34 soft hang bugs;
//   - Hang Doctor itself — the two-phase S-Checker/Diagnoser detector with
//     its per-action state machine, Hang Bug Report, and known-blocking-API
//     feedback loop — plus the paper's baselines (Timeout, Utilization, and
//     an offline PerfChecker-style scanner);
//   - experiment harnesses regenerating every table and figure of the
//     paper's evaluation (see cmd/experiments and the repository
//     benchmarks).
//
// # Quick start
//
//	c := hangdoctor.LoadCorpus()
//	app := c.MustApp("K9-Mail")
//	sess, _ := hangdoctor.NewSession(app, hangdoctor.LGV10(), 42)
//	doctor := hangdoctor.Monitor(sess, hangdoctor.Config{})
//	for _, act := range hangdoctor.Trace(app, 42, 100) {
//		sess.Perform(act)
//		sess.Idle(hangdoctor.Second)
//	}
//	fmt.Print(doctor.Report().Render())
//
// Everything is deterministic: the same seed reproduces the same trace,
// hangs, diagnoses, and report, bit for bit.
package hangdoctor

import (
	"io"

	"hangdoctor/internal/android/api"
	"hangdoctor/internal/android/app"
	"hangdoctor/internal/core"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/detect"
	"hangdoctor/internal/obs"
	"hangdoctor/internal/simclock"
)

// Core library types.
type (
	// Doctor is the Hang Doctor runtime detector (the paper's contribution).
	Doctor = core.Doctor
	// Config parameterizes a Doctor; the zero value is the paper's
	// configuration (100 ms delay, the three S-Checker conditions, 20 ms
	// trace sampling, occurrence threshold 0.5, reset every 20 executions).
	Config = core.Config
	// Condition is one S-Checker symptom threshold.
	Condition = core.Condition
	// ActionState is the per-action state of Figure 3.
	ActionState = core.ActionState
	// Detection is one confirmed soft-hang-bug diagnosis.
	Detection = core.Detection
	// Diagnosis is a Trace Analyzer verdict.
	Diagnosis = core.Diagnosis
	// Report is the developer-facing Hang Bug Report.
	Report = core.Report
	// ReportEntry is one Hang Bug Report row.
	ReportEntry = core.ReportEntry
	// LabeledReading is one sample of the filter-adaptation data set.
	LabeledReading = core.LabeledReading
	// HeavyReading is a wide-event adaptation sample for server-side
	// re-selection.
	HeavyReading = core.HeavyReading
	// AdaptResult is an adaptation pass outcome.
	AdaptResult = core.AdaptResult
	// Telemetry is the per-action responsiveness dashboard.
	Telemetry = core.Telemetry
	// ActionStats is one action's responsiveness summary.
	ActionStats = core.ActionStats
	// Health is the Doctor's degraded-operation summary: what the
	// measurement plane lost and how the Doctor compensated.
	Health = core.Health
	// Metrics is a deterministic point-in-time snapshot of a Doctor's obs
	// registry: health and accounting counters, perf-plane counters,
	// injected-fault ground truth, and the stage-latency histograms.
	// Obtain one with (*Doctor).Metrics(); merge many with MergeMetrics.
	Metrics = obs.Snapshot
)

// MergeMetrics folds metrics snapshots from many Doctors into one
// fleet-style view: counters and gauges sum, histograms add bucket-wise.
func MergeMetrics(snaps ...Metrics) Metrics { return obs.MergeSnapshots(snaps...) }

// LightAdapt nudges the current thresholds on collected labeled readings
// (the on-device adaptation pass); it reports false when heavy adaptation
// is needed.
func LightAdapt(conds []Condition, data []LabeledReading) (AdaptResult, bool) {
	return core.LightAdapt(conds, data)
}

// Simulated-app model types.
type (
	// App is a simulated application.
	App = app.App
	// Action is a user action (the unit Hang Doctor tracks state for).
	Action = app.Action
	// InputEvent is one main-thread message of an action.
	InputEvent = app.InputEvent
	// Op is one operation an input event executes.
	Op = app.Op
	// Bug is ground-truth metadata of a seeded soft hang bug.
	Bug = app.Bug
	// CostModel describes an operation's resource behaviour.
	CostModel = app.CostModel
	// Device models the phone the app runs on.
	Device = app.Device
	// Session executes an app on a simulated device.
	Session = app.Session
	// ActionExec records one action execution.
	ActionExec = app.ActionExec
	// APIRegistry is the shared class/API universe with the known-blocking
	// database.
	APIRegistry = api.Registry
	// Corpus is the 114-app evaluation universe.
	Corpus = corpus.Corpus
)

// Time types (virtual nanoseconds).
type (
	// Time is an absolute simulated timestamp.
	Time = simclock.Time
	// Duration is a span of simulated time.
	Duration = simclock.Duration
)

// Duration units.
const (
	Nanosecond  = simclock.Nanosecond
	Microsecond = simclock.Microsecond
	Millisecond = simclock.Millisecond
	Second      = simclock.Second
	Minute      = simclock.Minute
	Hour        = simclock.Hour
	Day         = simclock.Day
)

// PerceivableDelay is the 100 ms human-perceivable delay defining a soft
// hang.
const PerceivableDelay = detect.PerceivableDelay

// Action states (Figure 3).
const (
	Uncategorized = core.Uncategorized
	Normal        = core.Normal
	Suspicious    = core.Suspicious
	HangBug       = core.HangBug
)

// New builds a Hang Doctor with the given configuration (zero value = the
// paper's defaults).
func New(cfg Config) *Doctor { return core.New(cfg) }

// Monitor attaches a new Doctor to a session and returns it; every action
// performed on the session from now on is analyzed.
func Monitor(s *Session, cfg Config) *Doctor {
	d := core.New(cfg)
	d.Attach(s)
	s.AddListener(d)
	return d
}

// DefaultConditions returns the paper's three S-Checker conditions.
func DefaultConditions() []Condition { return core.DefaultConditions() }

// NewSession builds the simulated device stack for an app. The seed fixes
// every random choice (costs, manifestation, interference, measurement
// noise).
func NewSession(a *App, dev Device, seed uint64) (*Session, error) {
	return app.NewSession(a, dev, seed)
}

// Devices the paper evaluates on.
func LGV10() Device    { return app.LGV10() }
func Nexus5() Device   { return app.Nexus5() }
func GalaxyS3() Device { return app.GalaxyS3() }

// NewRegistry returns a fresh API registry preloaded with the platform
// classes and the documented blocking APIs.
func NewRegistry() *APIRegistry { return api.NewRegistry() }

// LoadCorpus builds the 114-app evaluation corpus.
func LoadCorpus() *Corpus { return corpus.Build() }

// Trace generates a deterministic weighted user trace of n actions.
func Trace(a *App, seed uint64, n int) []*Action { return corpus.Trace(a, seed, n) }

// RunTrace executes a trace on a session with think-time gaps.
func RunTrace(s *Session, trace []*Action, think Duration) []*ActionExec {
	return corpus.RunTrace(s, trace, think)
}

// Cost-model archetypes for building custom apps.
func UIWork(mainCPU Duration, frames int) CostModel { return app.UIWork(mainCPU, frames) }
func IOHeavy(cpu Duration, blocks int, blockEach Duration) CostModel {
	return app.IOHeavy(cpu, blocks, blockEach)
}
func CPULoop(cpu Duration) CostModel { return app.CPULoop(cpu) }
func MemHeavy(cpu Duration, blocks int, blockEach Duration, faultsPerSec float64) CostModel {
	return app.MemHeavy(cpu, blocks, blockEach, faultsPerSec)
}
func ParseHeavy(cpu Duration) CostModel { return app.ParseHeavy(cpu) }

// NewReport returns an empty Hang Bug Report (for fleet-side merging).
func NewReport() *Report { return core.NewReport() }

// ImportReport parses a JSON document produced by (*Report).Export — the
// developer-side half of the fleet upload path.
func ImportReport(r io.Reader) (*Report, error) { return core.ImportReport(r) }
