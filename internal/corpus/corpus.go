// Package corpus defines the application universe Hang Doctor is evaluated
// on, standing in for the 114 real open-source apps of the paper's Table 5:
//
//   - the 16 Table-5 apps, modeled bug-by-bug from the paper's descriptions
//     (34 soft hang bugs total, 23 of which are invisible to offline
//     scanning because their root cause is an undocumented blocking API or
//     self-developed code);
//   - the 8 Table-1 motivation apps with well-known soft hang bugs, used for
//     the timeout study (Table 2) and as the S-Checker training set;
//   - 90 generated bug-free apps that round the corpus out to 114 and
//     exercise the false-positive path (UI-only soft hangs);
//   - a separate async slice (async.go) of 6 asynchronous-bug apps plus 3
//     async-clean controls, kept outside the frozen 114-app universe, that
//     exercises causal-chain attribution.
//
// Every app shares one api.Registry so the known-blocking database — the
// artifact Hang Doctor's feedback loop extends — is global, as in the paper.
package corpus

import (
	"fmt"
	"sort"
	"sync"

	"hangdoctor/internal/android/api"
	"hangdoctor/internal/android/app"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/simrand"
	"hangdoctor/internal/stack"
)

// Corpus is the full evaluation universe.
type Corpus struct {
	Registry *api.Registry
	// Apps is every app, Table-5 first, then motivation, then generated.
	Apps []*app.App
	// Table5 are the 16 apps with seeded soft hang bugs (paper Table 5).
	Table5 []*app.App
	// Motivation are the 8 Table-1 apps with well-known bugs.
	Motivation []*app.App
	// Async are the asynchronous-bug apps and their async-clean controls
	// (see async.go). They share the registry but live outside Apps: the
	// 114-app universe and its Table-5 counts are the paper's corpus and
	// stay frozen; the async slice extends the evaluation, it does not
	// rewrite it.
	Async []*app.App
}

// Build assembles the corpus. It panics on any internal inconsistency
// (corpus definitions are static data; a malformed app is a programming
// error, not a runtime condition).
func Build() *Corpus {
	reg := api.NewRegistry()
	b := &builder{reg: reg}
	c := &Corpus{Registry: reg}

	c.Table5 = table5Apps(b)
	c.Motivation = motivationApps(b)
	gen := generatedApps(b, 114-len(c.Table5)-len(c.Motivation))
	c.Async = asyncApps(b)

	c.Apps = append(c.Apps, c.Table5...)
	c.Apps = append(c.Apps, c.Motivation...)
	c.Apps = append(c.Apps, gen...)

	for _, a := range c.Apps {
		if err := a.Finalize(); err != nil {
			panic("corpus: " + err.Error())
		}
	}
	for _, a := range c.Async {
		if err := a.Finalize(); err != nil {
			panic("corpus: " + err.Error())
		}
	}
	return c
}

var (
	sharedOnce   sync.Once
	sharedCorpus *Corpus
)

// Shared returns a process-wide memoized corpus. Build is deterministic —
// the class/API tables, the 114 apps, and every derived trace are identical
// across calls — so rebuilding the corpus per context or per benchmark
// iteration is pure waste. The one piece of mutable state, the registry's
// known-blocking database (extended at runtime by Hang Doctor's feedback
// loop), is reset to its shipped snapshot on every call, so each caller
// starts from exactly the state a fresh Build would hand it. Callers that
// mutate anything beyond the known-blocking database must use Build.
func Shared() *Corpus {
	sharedOnce.Do(func() { sharedCorpus = Build() })
	sharedCorpus.Registry.SnapshotYear(api.ShippedYear)
	return sharedCorpus
}

// App returns the app with the given name (searching Apps, then Async).
func (c *Corpus) App(name string) (*app.App, bool) {
	for _, a := range c.Apps {
		if a.Name == name {
			return a, true
		}
	}
	for _, a := range c.Async {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// MustApp returns the named app or panics.
func (c *Corpus) MustApp(name string) *app.App {
	a, ok := c.App(name)
	if !ok {
		panic("corpus: no app " + name)
	}
	return a
}

// AllBugs returns every seeded bug across the corpus, sorted by ID.
func (c *Corpus) AllBugs() []*app.Bug {
	var out []*app.Bug
	for _, a := range c.Apps {
		out = append(out, a.Bugs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Table5Bugs returns the 34 bugs of the Table-5 apps.
func (c *Corpus) Table5Bugs() []*app.Bug {
	var out []*app.Bug
	for _, a := range c.Table5 {
		out = append(out, a.Bugs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// OfflineVisible reports whether an offline scanner with the registry's
// current known-blocking database detects the bug: some API in the visible
// prefix of its call chain is known blocking.
func (c *Corpus) OfflineVisible(b *app.Bug) bool {
	for _, a := range b.Op.VisibleAPIs() {
		if c.Registry.IsKnownBlocking(a.Key()) {
			return true
		}
	}
	return false
}

// MissedOfflineBugs returns Table-5 bugs invisible to offline scanning (the
// paper's "MO" column, 23 bugs — the validation set).
func (c *Corpus) MissedOfflineBugs() []*app.Bug {
	var out []*app.Bug
	for _, b := range c.Table5Bugs() {
		if !c.OfflineVisible(b) {
			out = append(out, b)
		}
	}
	return out
}

// KnownBugs returns Table-5 bugs an offline scanner does detect (the
// training-set pool, 11 bugs).
func (c *Corpus) KnownBugs() []*app.Bug {
	var out []*app.Bug
	for _, b := range c.Table5Bugs() {
		if c.OfflineVisible(b) {
			out = append(out, b)
		}
	}
	return out
}

// builder provides compact app-definition helpers over the shared registry.
type builder struct {
	reg *api.Registry
}

// class defines (or fetches) a class.
func (b *builder) class(name string, ui bool, lib string, closed bool) *api.Class {
	return b.reg.DefineClass(name, ui, lib, closed)
}

// api defines a method; knownSince 0 marks an API never documented blocking.
func (b *builder) api(c *api.Class, method string, line, knownSince int) *api.API {
	if a, ok := b.reg.API(c.Name + "." + method); ok {
		return a
	}
	a := b.reg.DefineAPI(c, method, "", line, knownSince)
	if knownSince != 0 && knownSince <= 2017 {
		b.reg.AddKnownBlocking(a.Key())
	}
	return a
}

// platform fetches a preloaded platform API by key, panicking if absent.
func (b *builder) platform(key string) *api.API {
	a, ok := b.reg.API(key)
	if !ok {
		panic("corpus: missing platform API " + key)
	}
	return a
}

// pmuScale derives a per-op micro-architectural profile multiplier from the
// op's identity: real operations differ by multiples in cache/instruction
// behaviour even within one archetype, which is why PMU events separate
// bugs from UI work poorly (Table 3). Deterministic per name.
func pmuScale(name string) float64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return simrand.New(h).LogNormal(0, 1.05)
}

// op builds an API-call op.
func (b *builder) op(name string, a *api.API, via []*api.API, cost app.CostModel, manifest float64, bug *app.Bug) *app.Op {
	cost.PMUScale = pmuScale(a.Key())
	return &app.Op{Name: name, API: a, Via: via, Heavy: cost,
		Light: cost.Light(0.06), Manifest: manifest, Bug: bug}
}

// selfOp builds a self-developed-code op.
func (b *builder) selfOp(class, method, file string, line int, cost app.CostModel, manifest float64, bug *app.Bug) *app.Op {
	cost.PMUScale = pmuScale(class + "." + method)
	return &app.Op{
		Name:     method,
		Self:     &stack.Frame{Class: class, Method: method, File: file, Line: line},
		Heavy:    cost,
		Light:    cost.Light(0.06),
		Manifest: manifest,
		Bug:      bug,
	}
}

// uiOp builds an always-manifesting UI op on a platform UI API. The PMU
// profile varies by API, and the render-to-main work ratio varies by call
// site: the same setText drives very different view trees in different
// apps, so the render thread receives anywhere from ~0.6x to ~1.6x the
// main-thread CPU. Without that spread the main-minus-render time
// difference of UI work would be unrealistically close to zero.
func (b *builder) uiOp(key string, cost app.CostModel) *app.Op {
	cost.PMUScale = pmuScale(key)
	if cost.Frames > 0 && cost.PerFrame > 0 {
		site := fmt.Sprintf("%s/%d/%d", key, cost.CPU, cost.Frames)
		ratio := pmuJitterAt(site, 0.28)
		cost.PerFrame = simclock.Duration(float64(cost.PerFrame) * ratio)
	}
	return &app.Op{Name: keyMethod(key), API: b.platform(key), Heavy: cost}
}

// pmuJitterAt returns a deterministic lognormal factor for a name at the
// given sigma.
func pmuJitterAt(name string, sigma float64) float64 {
	h := uint64(1099511628211)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 16777619
	}
	return simrand.New(h).LogNormal(0, sigma)
}

// quickUIOp is sub-perceivable UI housekeeping present in most actions.
func (b *builder) quickUIOp(key string) *app.Op {
	return b.uiOp(key, app.UIWork(18*simclock.Millisecond, 3))
}

func keyMethod(key string) string {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '.' {
			return key[i+1:]
		}
	}
	return key
}

// action assembles a single-event action from ops.
func action(name, kind string, weight float64, ops ...*app.Op) *app.Action {
	return &app.Action{
		Name:   name,
		Kind:   kind,
		Weight: weight,
		Events: []*app.InputEvent{{Name: "evt0", Ops: ops}},
	}
}

// ms is a duration literal helper.
func ms(v int) simclock.Duration { return simclock.Duration(v) * simclock.Millisecond }

// Trace generates a deterministic user trace for an app: n weighted action
// picks. The same (app, seed, n) always yields the same trace; each call
// builds a new slice, which the caller owns.
func Trace(a *app.App, seed uint64, n int) []*app.Action {
	rng := simrand.New(seed).Derive("trace/" + a.Name)
	weights := make([]float64, len(a.Actions))
	for i, act := range a.Actions {
		weights[i] = act.Weight
	}
	out := make([]*app.Action, n)
	for i := range out {
		out[i] = a.Actions[rng.WeightedPick(weights)]
	}
	return out
}

// MonkeyTrace generates an automated-input trace in the style of Android's
// Monkey: n uniformly random action picks, ignoring the app's real usage
// weights. The paper's §4.6 test-bed discussion runs on traces like these.
// Like Trace, it is deterministic per (app, seed, n) and returns a new
// slice.
func MonkeyTrace(a *app.App, seed uint64, n int) []*app.Action {
	rng := simrand.New(seed).Derive("monkey/" + a.Name)
	out := make([]*app.Action, n)
	for i := range out {
		out[i] = a.Actions[rng.Intn(len(a.Actions))]
	}
	return out
}

// RunTrace executes a trace on a session with think-time gaps between
// actions, returning every execution record.
func RunTrace(s *app.Session, trace []*app.Action, think simclock.Duration) []*app.ActionExec {
	execs := make([]*app.ActionExec, 0, len(trace))
	for _, act := range trace {
		execs = append(execs, s.Perform(act))
		s.Idle(think)
	}
	return execs
}
