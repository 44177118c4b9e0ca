// Package app models the simulated Android applications Hang Doctor is
// evaluated on: apps composed of user actions, each action dispatching input
// events to the main thread, each event executing a sequence of operations
// (UI work, API calls, self-developed code). The package also provides the
// execution engine (Session) that runs actions on the cpu/looper/render
// substrate with deterministic per-execution cost jitter and background
// interference, producing the response times, counters, and sampled stacks
// that detectors observe.
package app

import (
	"fmt"

	"hangdoctor/internal/android/api"
	"hangdoctor/internal/simclock"
	"hangdoctor/internal/stack"
)

// Bug is the ground-truth record of a seeded soft hang bug, mirroring a row
// of the paper's Table 5.
type Bug struct {
	// ID is unique within the corpus, e.g. "K9-Mail/1007-clean".
	ID string
	// IssueID is the tracker issue number from Table 5.
	IssueID string
	// Description summarizes the root cause.
	Description string
	// Op is the buggy operation; set by App.Finalize.
	Op *Op
	// Action is the action whose execution manifests the bug.
	Action *Action
	// App is the owning app.
	App *App
}

// RootCauseKey returns the class.method the Diagnoser should report for this
// bug: the leaf API, or the self-developed function.
func (b *Bug) RootCauseKey() string { return b.Op.LeafKey() }

// InputEvent is one message the action posts to the main thread.
type InputEvent struct {
	Name string
	Ops  []*Op

	// fullStacks[i] is the precomputed dispatch stack of Ops[i] under this
	// event's action (leaf, wrapper chain, handler, framework), built once
	// at Finalize; stacks are immutable and shared by every execution.
	fullStacks []*stack.Stack
	// segCap is the worst-case scheduler-segment count of one dispatch of
	// this event, which sizes a session's program buffer on first use.
	segCap int
	// msgName is the looper message name of the event's dispatches,
	// "<action UID>/<event name>", built once at Finalize.
	msgName string
}

// Action is a user action: the unit Hang Doctor tracks state for. The App
// Injector assigns each action a UID at packaging time (§3.5).
type Action struct {
	// Name is the user-facing label ("Open Email", "Scroll Timeline").
	Name string
	// UID is assigned by Finalize as "<app>/<name>".
	UID string
	// Kind is the triggering callback ("onClick", "onScroll", "onResume").
	Kind string
	// Handler is the developer-callback frame that tops app-level stacks.
	Handler stack.Frame
	// Events are the input events posted, in order.
	Events []*InputEvent
	// Weight is the relative frequency in generated workloads (default 1).
	Weight float64

	// callerStack is the precomputed handler-plus-framework stack every
	// execution of this action samples while in caller-level code; built
	// once at Finalize.
	callerStack *stack.Stack
	// inputOrigin is the causal edge input-event dispatches of this action
	// carry (Kind "input"); built once at Finalize so tagging is a copy.
	inputOrigin stack.Origin
}

// CallerStack returns the action's precomputed handler-plus-framework stack
// (what a sampler sees while the main thread runs caller-level code). It is
// nil before App.Finalize. The stack is immutable and shared by every
// execution — callers must not mutate it.
func (a *Action) CallerStack() *stack.Stack { return a.callerStack }

// DispatchStacks returns the event's precomputed full dispatch stacks,
// DispatchStacks()[i] being the stack one dispatch of Ops[i] exposes (leaf,
// wrapper chain, handler, framework). It is nil before App.Finalize. The
// stacks are immutable and shared by every execution — callers must not
// mutate them.
func (ie *InputEvent) DispatchStacks() []*stack.Stack { return ie.fullStacks }

// Ops returns all ops across the action's events, in execution order.
func (a *Action) Ops() []*Op {
	var out []*Op
	for _, ev := range a.Events {
		out = append(out, ev.Ops...)
	}
	return out
}

// App is one simulated application.
type App struct {
	Name      string
	Commit    string
	Category  string
	Downloads string
	Actions   []*Action
	Bugs      []*Bug
	// Registry is the API universe the app links against (shared across the
	// corpus so the known-blocking database is global, as in the paper).
	Registry *api.Registry
	// PoolWidth is the size of the app's bounded worker pool (its
	// ExecutorService). Zero defaults to 2 when any op is async; apps with
	// no async ops get no pool at all, so the pre-async corpus executes
	// bit-for-bit identically.
	PoolWidth int

	finalized bool
	hasAsync  bool
}

// HasAsync reports whether any op spawns work asynchronously (meaningful
// after Finalize); sessions only create a worker pool for such apps.
func (a *App) HasAsync() bool { return a.hasAsync }

// Finalize assigns action UIDs and default handler frames, links bug
// back-references, and validates the app. It must be called once after
// assembly; Session construction requires it.
func (a *App) Finalize() error {
	if a.finalized {
		return nil
	}
	if a.Name == "" {
		return fmt.Errorf("app: missing name")
	}
	if a.Registry == nil {
		return fmt.Errorf("app %s: missing registry", a.Name)
	}
	if len(a.Actions) == 0 {
		return fmt.Errorf("app %s: no actions", a.Name)
	}
	seen := map[string]bool{}
	for _, act := range a.Actions {
		if act.Name == "" {
			return fmt.Errorf("app %s: action with empty name", a.Name)
		}
		if seen[act.Name] {
			return fmt.Errorf("app %s: duplicate action %q", a.Name, act.Name)
		}
		seen[act.Name] = true
		act.UID = a.Name + "/" + act.Name
		if act.Weight == 0 {
			act.Weight = 1
		}
		if act.Kind == "" {
			act.Kind = "onClick"
		}
		if act.Handler == (stack.Frame{}) {
			act.Handler = stack.Frame{
				Class:  "app." + sanitize(a.Name) + ".MainActivity",
				Method: act.Kind + "_" + sanitize(act.Name),
				File:   "MainActivity.java",
				Line:   100 + len(act.Name),
			}
		}
		if len(act.Events) == 0 {
			return fmt.Errorf("app %s: action %q has no events", a.Name, act.Name)
		}
		// Precompute everything a dispatch needs that depends only on static
		// app data: the caller stack, each op's full stack under this
		// action, each op's event-rate vectors, and the worst-case segment
		// count per event. Sessions share these across all executions, so
		// the per-dispatch hot path allocates nothing.
		callerFrames := append([]stack.Frame{act.Handler}, frameworkFrames...)
		act.callerStack = stack.New(callerFrames...)
		internStack(a.Registry, act.callerStack)
		act.inputOrigin = stack.Origin{ActionUID: act.UID, Site: act.Handler.Key(), Kind: "input"}
		for _, ev := range act.Events {
			if len(ev.Ops) == 0 {
				return fmt.Errorf("app %s: action %q event %q has no ops", a.Name, act.Name, ev.Name)
			}
			ev.fullStacks = make([]*stack.Stack, len(ev.Ops))
			ev.segCap = 0
			ev.msgName = act.UID + "/" + ev.Name
			for i, op := range ev.Ops {
				if op.Manifest == 0 {
					op.Manifest = 1
				}
				if op.Bug != nil {
					op.Bug.Op = op
					op.Bug.Action = act
					op.Bug.App = a
				}
				leafFrames := make([]stack.Frame, 0, len(op.Via)+1+len(callerFrames))
				leafFrames = append(leafFrames, op.LeafFrame())
				for v := len(op.Via) - 1; v >= 0; v-- {
					leafFrames = append(leafFrames, op.Via[v].Frame())
				}
				ev.fullStacks[i] = stack.New(append(leafFrames, callerFrames...)...)
				internStack(a.Registry, ev.fullStacks[i])
				op.heavyRates = op.Heavy.Rates()
				if op.Light != nil {
					op.lightRates = op.Light.Rates()
				}
				ev.segCap += op.maxSegments()
				if op.Async != nil {
					if op.Async.Hops > 0 && op.Async.HopDelay <= 0 {
						return fmt.Errorf("app %s: async op %q has hops without a hop delay", a.Name, op.Name)
					}
					a.hasAsync = true
					a.finalizeAsync(act, op, callerFrames)
				}
			}
		}
	}
	if a.hasAsync && a.PoolWidth <= 0 {
		a.PoolWidth = 2
	}
	// Validate bug list consistency: every listed bug must be wired to an op.
	for _, b := range a.Bugs {
		if b.Op == nil {
			return fmt.Errorf("app %s: bug %s not attached to any op", a.Name, b.ID)
		}
	}
	a.finalized = true
	return nil
}

// Action returns the action with the given name.
func (a *App) Action(name string) (*Action, bool) {
	for _, act := range a.Actions {
		if act.Name == name {
			return act, true
		}
	}
	return nil, false
}

// MustAction returns the named action or panics; for tests and examples.
func (a *App) MustAction(name string) *Action {
	act, ok := a.Action(name)
	if !ok {
		panic(fmt.Sprintf("app %s: no action %q", a.Name, name))
	}
	return act
}

// finalizeAsync precomputes an async op's immutable execution material: the
// worker-side task stack (task leaf, wrapper chain, executor plumbing), the
// main-thread await stack (FutureTask.get over the action's caller frames),
// the task and completion rate vectors, the causal origins every spawned
// task and completion message will carry, and the completion's event and
// message names.
func (a *App) finalizeAsync(act *Action, op *Op, callerFrames []stack.Frame) {
	spec := op.Async
	taskLeaf := op.TaskLeafFrame()
	taskFrames := make([]stack.Frame, 0, 1+len(op.Via)+len(workerFrames))
	taskFrames = append(taskFrames, taskLeaf)
	if spec.TaskFrame == nil {
		// The spawned work is the op's own call chain, moved off-thread.
		for v := len(op.Via) - 1; v >= 0; v-- {
			taskFrames = append(taskFrames, op.Via[v].Frame())
		}
	}
	taskFrames = append(taskFrames, workerFrames...)
	op.taskStack = stack.New(taskFrames...)
	internStack(a.Registry, op.taskStack)
	awaitFrames := make([]stack.Frame, 0, 1+len(callerFrames))
	awaitFrames = append(awaitFrames, futureGetFrame)
	awaitFrames = append(awaitFrames, callerFrames...)
	op.awaitStack = stack.New(awaitFrames...)
	internStack(a.Registry, op.awaitStack)
	op.taskRates = spec.Task.Rates()
	if spec.Completion.CPU > 0 {
		op.completionRates = spec.Completion.Rates()
	}
	kind := "submit"
	if spec.Hops > 0 {
		kind = "delay"
	}
	op.spawnOrigin = stack.Origin{ActionUID: act.UID, Site: op.taskStack.Leaf().Key(), Kind: kind}
	op.completionOrigin = stack.Origin{ActionUID: act.UID, Site: op.LeafKey(), Kind: "completion"}
	op.completionEvent = "completion:" + op.Name
	op.completionMsg = act.UID + "/" + op.completionEvent
}

// internStack assigns every frame of a freshly built (still Finalize-owned)
// stack its symbol ID in the app's registry, so sampled stacks carry dense
// IDs and the diagnosis pipeline never touches frame strings. API frames
// arrive pre-interned via api.API.Frame; handler, framework, and
// self-developed frames are interned here.
func internStack(reg *api.Registry, st *stack.Stack) {
	for i := range st.Frames {
		f := &st.Frames[i]
		if f.Sym == stack.NoSym {
			f.Sym = reg.Intern(f.Class, f.Method)
		}
	}
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out = append(out, c)
		}
	}
	return string(out)
}

// Device is the hardware model an app session runs on.
type Device struct {
	Name string
	// Cores is the number of big-cluster cores app threads contend on.
	Cores int
	// Registers is the PMU register count (6 on the LG V10).
	Registers int
	// BGThreads is the number of background interference threads active
	// during an action window (system services, app workers).
	BGThreads int
	// BGBurst and BGGap shape each interference thread's duty cycle.
	BGBurst simclock.Duration
	BGGap   simclock.Duration
	// NoiseScale scales the perf measurement-noise baselines (0 disables
	// measurement noise entirely — used by unit tests).
	NoiseScale float64
	// EnvRichness scales every op's manifestation probability (0 is treated
	// as 1). It models how much of the real-world state that triggers soft
	// hang bugs — large mailboxes, cold caches, heavy HTML, slow flash — the
	// environment can reproduce. In-lab test beds run well below 1, which
	// is the paper's §4.6 argument for keeping Hang Doctor in the wild.
	EnvRichness float64
}

// LGV10 is the paper's primary test device.
func LGV10() Device {
	return Device{
		Name:       "LG V10",
		Cores:      2,
		Registers:  6,
		BGThreads:  2,
		BGBurst:    6 * simclock.Millisecond,
		BGGap:      8 * simclock.Millisecond,
		NoiseScale: 1,
	}
}

// Nexus5 is a secondary device with slightly different interference.
func Nexus5() Device {
	d := LGV10()
	d.Name = "Nexus 5"
	d.BGBurst = 5 * simclock.Millisecond
	d.BGGap = 9 * simclock.Millisecond
	return d
}

// GalaxyS3 is an older device: fewer PMU registers, more background churn.
func GalaxyS3() Device {
	d := LGV10()
	d.Name = "Galaxy S3"
	d.Registers = 4
	d.BGBurst = 7 * simclock.Millisecond
	d.BGGap = 7 * simclock.Millisecond
	return d
}

// Quiet returns a copy of d with measurement noise and background
// interference disabled; unit tests use it for exact assertions.
func (d Device) Quiet() Device {
	d.BGThreads = 0
	d.NoiseScale = 0
	return d
}
