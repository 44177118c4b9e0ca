package core

import (
	"fmt"
	"slices"
)

// ActionState is the per-action state Hang Doctor transitions through its
// two-phase algorithm (Figure 3 of the paper).
type ActionState int

const (
	// Uncategorized: never analyzed, or reset for re-analysis; monitored by
	// the first-phase S-Checker.
	Uncategorized ActionState = iota
	// Normal: previous analysis attributed its hangs to UI work; no data is
	// collected (minimal overhead path).
	Normal
	// Suspicious: S-Checker saw soft-hang-bug symptoms; the Diagnoser will
	// stack-trace the next soft hang.
	Suspicious
	// HangBug: the Diagnoser confirmed a soft hang bug; every future soft
	// hang is traced, because an action may contain several bugs that
	// manifest in different executions (§3.2).
	HangBug
)

func (s ActionState) String() string {
	switch s {
	case Uncategorized:
		return "Uncategorized"
	case Normal:
		return "Normal"
	case Suspicious:
		return "Suspicious"
	case HangBug:
		return "HangBug"
	}
	return fmt.Sprintf("ActionState(%d)", int(s))
}

// actionRecord is one row of the runtime look-up table the App Injector's
// UIDs key into (§3.5).
type actionRecord struct {
	uid   string
	state ActionState
	// execs counts executions observed.
	execs int
	// sinceNormal counts executions since the action entered Normal, for
	// the periodic reset to Uncategorized.
	sinceNormal int
	// lastSymptoms is the set of condition indexes that fired at the most
	// recent S-Checker flag, attributed to the next confirmed diagnosis
	// (the Table 6 data).
	lastSymptoms []int
	// consecOpenFails counts consecutive executions whose perf sessions
	// could not be opened at all; reaching quarantineAfter quarantines the
	// action.
	consecOpenFails int
	// quarantineLeft is how many more executions skip S-Checker monitoring
	// because the action's measurement plane kept failing.
	quarantineLeft int
}

// fig3Edges lists, for each state, the states the paper's Figure 3 lets it
// move to.
var fig3Edges = [...][]ActionState{
	Uncategorized: {Normal, Suspicious},
	Suspicious:    {Normal, HangBug, Suspicious},
	Normal:        {Uncategorized},
	HangBug:       {HangBug},
}

// transition records a state change, enforcing the legal edges of the
// paper's Figure 3.
func (r *actionRecord) transition(to ActionState) {
	if !slices.Contains(fig3Edges[r.state], to) {
		panic(fmt.Sprintf("core: illegal transition %v -> %v for %s", r.state, to, r.uid))
	}
	if to == Normal {
		r.sinceNormal = 0
	}
	r.state = to
}

// StateTransition is an audit-log entry of a state change (consumed by the
// Figure 7 experiment and tests).
type StateTransition struct {
	ActionUID string
	From, To  ActionState
	Phase     string // "S-Checker" or "Diagnoser" or "Reset"
	ExecSeq   int
	// LowConfidence marks a verdict rendered from degraded data: main-only
	// thresholds, partially lost counters, or a partial stack sample set.
	LowConfidence bool
}
