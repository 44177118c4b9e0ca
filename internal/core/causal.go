package core

import (
	"hangdoctor/internal/android/api"
	"hangdoctor/internal/stack"
)

// causal.go is the causal-chain extension of the Trace Analyzer. The paper's
// occurrence-factor analysis (§3.4.1) assumes the root cause executes on the
// main thread during the hang. Asynchronous app code breaks that assumption:
// a dispatch that parks in FutureTask.get while a pool worker does the real
// work shows the await API as its most frequent leaf, and a convoy behind
// another action's task shows nothing of the blocker at all. The causal
// analyzer closes that gap with the provenance the instrumented runtime
// already has — every sampled stack arrives tagged with the causal edge
// (origin action, spawn site, edge kind) of the work its thread was
// executing — by grouping worker samples into per-origin chains, computing
// occurrence factors per chain, and re-attributing await-parked hangs to the
// dominant chain's own trace population.

// CausalChain describes the asynchronous chain a diagnosis was attributed
// through. The zero value means the diagnosis was plain main-thread work.
// SharePermille is an integer share (‰ of the hang's samples that belonged
// to the chain) so reports carrying chains stay canonically encodable.
type CausalChain struct {
	// Kind is the causal edge type: "submit", "delay", "post", or
	// "completion".
	Kind string
	// OriginAction is the UID of the action that transitively spawned the
	// chain — for a cross-action convoy this differs from the action that
	// hung, and detections are attributed to it.
	OriginAction string
	// OriginSite is the spawn site (the task's leaf frame key for submitted
	// work, the spawning op's leaf for completions).
	OriginSite string
	// SharePermille is the chain's share of all samples collected during the
	// hang, in thousandths.
	SharePermille int
}

// Zero reports whether no chain was attributed.
func (c CausalChain) Zero() bool { return c == CausalChain{} }

// ref returns c as a report entry holds it: nil, an entry's only empty
// chain, for the zero chain, and otherwise a new copy of c, so an entry
// never points into where c came from (a wire view, a decoder's scratch,
// a JSON document).
func (c CausalChain) ref() *CausalChain {
	if c.Zero() {
		return nil
	}
	p := new(CausalChain) // &c would move c to the heap on every call
	*p = c
	return p
}

// value returns the chain c refers to, or the zero chain for nil.
func (c *CausalChain) value() CausalChain {
	if c == nil {
		return CausalChain{}
	}
	return *c
}

// mergeChain folds two chain attributions of the same detection row
// componentwise: strings keep the lexicographically smallest non-empty
// value, the share keeps the maximum. Componentwise min/max is commutative
// and associative, so fleet merges reach the same fixed point regardless of
// upload order — the same property the rest of the report fold relies on.
func mergeChain(a, b CausalChain) CausalChain {
	s := func(x, y string) string {
		if x == "" {
			return y
		}
		if y != "" && y < x {
			return y
		}
		return x
	}
	out := CausalChain{
		Kind:          s(a.Kind, b.Kind),
		OriginAction:  s(a.OriginAction, b.OriginAction),
		OriginSite:    s(a.OriginSite, b.OriginSite),
		SharePermille: a.SharePermille,
	}
	if b.SharePermille > out.SharePermille {
		out.SharePermille = b.SharePermille
	}
	return out
}

// foldChain is mergeChain over the chains report entries hold, which never
// change once built and are shared between entries (nil for none). It
// returns a or b itself wherever the fold equals it, so merging an equal
// chain allocates nothing, and builds a new chain only for a fold that
// differs from both.
func foldChain(a, b *CausalChain) *CausalChain {
	switch {
	case b == nil || a == b:
		return a
	case a == nil:
		return b
	}
	switch m := mergeChain(*a, *b); m {
	case *a:
		return a
	case *b:
		return b
	default:
		return m.ref()
	}
}

// chainGroup accumulates one origin's samples during partitioning. Groups
// live in a reused slice scanned linearly — a hang sees a handful of
// distinct origins at most, and avoiding a map keeps the warm path
// allocation-free.
type chainGroup struct {
	origin stack.Origin
	count  int
	first  int // index of the group's first sample: deterministic tie-break
}

// CausalAnalyzer is the Trace Analyzer extended with causal-chain
// attribution. It shares the Doctor's TraceAnalyzer (and its dense scratch),
// so a causal analysis in steady state allocates nothing: partitioning
// reuses the main/chain stack buffers and the group slice, and both verdict
// passes run on the shared analyzer's per-symbol counters.
//
// Not safe for concurrent use; each Doctor owns one.
type CausalAnalyzer struct {
	ta *TraceAnalyzer

	mainBuf  []*stack.Stack
	chainBuf []*stack.Stack
	groups   []chainGroup
	mainOrg  []chainGroup
}

// NewCausalAnalyzer wraps an existing TraceAnalyzer (sharing scratch with
// the plain diagnosis path).
func NewCausalAnalyzer(ta *TraceAnalyzer) *CausalAnalyzer {
	return &CausalAnalyzer{ta: ta}
}

// note appends a sample to the group matching origin (linear scan).
func note(groups []chainGroup, origin stack.Origin, idx int) []chainGroup {
	for i := range groups {
		if groups[i].origin == origin {
			groups[i].count++
			return groups
		}
	}
	return append(groups, chainGroup{origin: origin, count: 1, first: idx})
}

// dominant returns the group with the most samples, breaking ties toward
// the earliest-seen group (deterministic: samples arrive in collection
// order).
func dominant(groups []chainGroup) *chainGroup {
	best := &groups[0]
	for i := 1; i < len(groups); i++ {
		g := &groups[i]
		if g.count > best.count || (g.count == best.count && g.first < best.first) {
			best = g
		}
	}
	return best
}

// Analyze renders a causal diagnosis from tagged samples.
//
// Main-thread samples are analyzed exactly as the plain Trace Analyzer would
// (restricted to main-thread input, the result is identical — the
// differential oracle in causal_test.go pins this). If the main verdict is
// an await symbol (the dispatch was parked on asynchronous work) and worker
// chains were sampled, the hang is re-attributed: the dominant chain's
// samples get their own occurrence-factor pass, and that verdict — with the
// chain's provenance — replaces the await. If the main verdict is an await
// but no worker samples survived, the analyzer keeps the main-thread verdict
// and reports fallback=true so the Doctor can count the degradation.
//
// When no escalation happens, main-thread samples executing provenance-
// carrying dispatches (worker completions posted back to the looper) still
// contribute chain metadata to the verdict, so completion-pattern bugs
// surface with their origin attached.
//
// ok is false when no usable main-thread samples were collected.
func (ca *CausalAnalyzer) Analyze(samples []stack.Tagged, reg *api.Registry, occHigh float64) (diag Diagnosis, chain CausalChain, fallback, ok bool) {
	ca.mainBuf = ca.mainBuf[:0]
	ca.groups = ca.groups[:0]
	ca.mainOrg = ca.mainOrg[:0]
	for i := range samples {
		s := &samples[i]
		if s.Stack == nil {
			continue
		}
		if s.Worker {
			ca.groups = note(ca.groups, s.Origin, i)
			continue
		}
		ca.mainBuf = append(ca.mainBuf, s.Stack)
		if s.Origin.Kind != "input" && !s.Origin.IsZero() {
			ca.mainOrg = note(ca.mainOrg, s.Origin, i)
		}
	}
	diag, ok = ca.ta.Analyze(ca.mainBuf, reg, occHigh)
	if !ok {
		return Diagnosis{}, CausalChain{}, false, false
	}
	total := len(samples)
	if reg.IsAwaitSym(diag.Sym) {
		if len(ca.groups) == 0 {
			// The thread is demonstrably waiting on asynchronous work, but
			// no worker sample survived to say which; keep the (wrong but
			// honest) await verdict and let the Doctor count the fallback.
			return diag, CausalChain{}, true, true
		}
		g := dominant(ca.groups)
		ca.chainBuf = ca.chainBuf[:0]
		for i := range samples {
			s := &samples[i]
			if s.Worker && s.Stack != nil && s.Origin == g.origin {
				ca.chainBuf = append(ca.chainBuf, s.Stack)
			}
		}
		chainDiag, chainOK := ca.ta.Analyze(ca.chainBuf, reg, occHigh)
		if chainOK {
			return chainDiag, CausalChain{
				Kind:          g.origin.Kind,
				OriginAction:  g.origin.ActionUID,
				OriginSite:    g.origin.Site,
				SharePermille: 1000 * g.count / total,
			}, false, true
		}
		return diag, CausalChain{}, true, true
	}
	if len(ca.mainOrg) > 0 {
		// No escalation, but the hang ran (at least partly) inside
		// provenance-carrying dispatches — completion deliveries, posted
		// chains. Attach the dominant origin as metadata; attribution
		// stays with the diagnosed main-thread code.
		g := dominant(ca.mainOrg)
		chain = CausalChain{
			Kind:          g.origin.Kind,
			OriginAction:  g.origin.ActionUID,
			OriginSite:    g.origin.Site,
			SharePermille: 1000 * g.count / total,
		}
	}
	return diag, chain, false, true
}
