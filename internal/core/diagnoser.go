package core

import (
	"hangdoctor/internal/android/api"
	"hangdoctor/internal/stack"
)

// Diagnosis is the Trace Analyzer's verdict on one traced soft hang.
type Diagnosis struct {
	// RootCause is the class.method held responsible.
	RootCause string
	// Sym is RootCause's dense symbol ID in the app registry's symbol
	// table, letting downstream consumers (detection recording, the
	// feedback loop) resolve the cause without re-parsing the key. It is
	// NoSym on diagnoses built outside the analyzer (fleet imports, tests).
	Sym stack.SymID
	// File/Line locate the root cause in source, as reported to the
	// developer (Figure 6(b)).
	File string
	Line int
	// Occurrence is the fraction of collected stack traces containing the
	// root cause.
	Occurrence float64
	// IsUI marks legitimate UI work (not a soft hang bug).
	IsUI bool
	// ViaCaller is set when the root cause is a caller function aggregating
	// many light operations (the self-developed heavy-operation case).
	ViaCaller bool
}

// TraceAnalyzer is the allocation-free Trace Analyzer (§3.4.1): it computes
// occurrence factors over dense per-symbol counters instead of string maps.
// All scratch state is owned by the analyzer and reused across hangs — the
// Doctor holds one per device — so analyzing a traced soft hang in steady
// state performs zero allocations and zero string work: frames carry
// pre-interned symbol IDs, per-symbol slots are claimed lazily via
// generation marks (no O(symbols) clearing per hang), and verdict
// tie-breaks are deterministic smallest-ID picks instead of a sorted key
// walk.
//
// An analyzer is not safe for concurrent use; each Doctor (one goroutine)
// owns its own.
type TraceAnalyzer struct {
	// gen stamps per-hang slot validity: a symbol's counters are live only
	// while its mark equals the current generation, so starting a new hang
	// is a single increment.
	gen uint64
	// traceGen stamps per-trace dedup (a symbol counts once per sampled
	// stack no matter how often it recurs in the frames).
	traceGen uint64

	// syms is the dense per-symbol scratch, indexed by stack.SymID.
	syms []symScratch

	// Touched symbol lists bound the verdict scan to symbols this hang
	// actually saw.
	leafTouched   []stack.SymID
	callerTouched []stack.SymID
}

// symScratch is the analyzer's scratch for one symbol, 56 bytes on 64-bit
// hosts. The frames point into the sampled stacks, which are immutable; an
// analysis reads them only while its traces are live.
type symScratch struct {
	leafMark, callerMark uint64       // generation the counts below belong to
	seenMark             uint64       // trace generation that last counted it
	leafFrame            *stack.Frame // first-seen leaf frame (File/Line source)
	callerFrame          *stack.Frame // first-seen caller frame
	leafCount            int32
	callerCount          int32
	callerDepth          int32 // cumulative frame index: closest-to-leaf tie-break
}

// grow extends the per-symbol scratch to cover n symbol IDs, preserving
// live marks (growth can happen mid-hang when a foreign frame interns a new
// symbol).
func (ta *TraceAnalyzer) grow(n int) {
	if n <= len(ta.syms) {
		return
	}
	// Grow geometrically so repeated single-symbol interning stays
	// amortized.
	if c := 2 * len(ta.syms); n < c {
		n = c
	}
	g := make([]symScratch, n)
	copy(g, ta.syms)
	ta.syms = g
}

// sym returns the frame's symbol ID, interning externally built frames on
// the fly and keeping the scratch arrays and view in range. Corpus frames
// carry cached IDs, so the steady-state cost is the nil check.
func (ta *TraceAnalyzer) sym(f *stack.Frame, reg *api.Registry, view *stack.View) stack.SymID {
	id := f.Sym
	if id == stack.NoSym {
		id = reg.SymOf(*f)
	}
	if int(id) >= len(ta.syms) {
		ta.grow(int(id) + 1)
	}
	if int(id) >= view.Len() {
		*view = reg.SymtabView()
	}
	return id
}

// Analyze implements the Trace Analyzer (§3.4.1): compute the occurrence
// factor of the most frequent leaf operation across the sampled stacks; if
// it is high, that operation is the root cause; otherwise the hang is many
// light operations driven by one caller, and the most common non-framework
// caller function with a high occurrence factor is reported instead.
// UI-class root causes are flagged so the Diagnoser can transition the
// action to Normal. The boolean result is false when no usable samples were
// collected.
func (ta *TraceAnalyzer) Analyze(traces []*stack.Stack, reg *api.Registry, occHigh float64) (Diagnosis, bool) {
	view := reg.SymtabView()
	ta.grow(view.Len())
	ta.gen++
	ta.leafTouched = ta.leafTouched[:0]
	ta.callerTouched = ta.callerTouched[:0]

	total := 0
	for _, tr := range traces {
		if tr.Depth() == 0 {
			continue
		}
		total++
		ta.traceGen++
		frames := tr.Frames
		lf := &frames[0]
		lid := ta.sym(lf, reg, &view)
		ls := &ta.syms[lid]
		if ls.leafMark != ta.gen {
			ls.leafMark = ta.gen
			ls.leafCount = 1
			ls.leafFrame = lf
			ta.leafTouched = append(ta.leafTouched, lid)
		} else {
			ls.leafCount++
		}
		ls.seenMark = ta.traceGen
		for i := 1; i < len(frames); i++ {
			f := &frames[i]
			id := ta.sym(f, reg, &view)
			cs := &ta.syms[id]
			if view.Attrs(id)&stack.SymFramework != 0 || cs.seenMark == ta.traceGen {
				continue
			}
			cs.seenMark = ta.traceGen
			if cs.callerMark != ta.gen {
				cs.callerMark = ta.gen
				cs.callerCount = 1
				cs.callerDepth = int32(i)
				cs.callerFrame = f
				ta.callerTouched = append(ta.callerTouched, id)
			} else {
				cs.callerCount++
				cs.callerDepth += int32(i)
			}
		}
	}
	if total == 0 {
		return Diagnosis{}, false
	}

	// Leaf verdict: highest count; ties break to the smallest symbol ID
	// (deterministic because intern order is deterministic per registry).
	leafID := ta.leafTouched[0]
	for _, id := range ta.leafTouched[1:] {
		c, bc := ta.syms[id].leafCount, ta.syms[leafID].leafCount
		if c > bc || (c == bc && id < leafID) {
			leafID = id
		}
	}
	lf := ta.syms[leafID].leafFrame
	d := Diagnosis{
		RootCause:  view.Key(leafID),
		Sym:        leafID,
		File:       lf.File,
		Line:       lf.Line,
		Occurrence: float64(ta.syms[leafID].leafCount) / float64(total),
	}
	if d.Occurrence < occHigh && len(ta.callerTouched) > 0 {
		// Caller verdict: highest count, closest to the leaf (smallest
		// cumulative depth), then smallest symbol ID.
		callerID := ta.callerTouched[0]
		for _, id := range ta.callerTouched[1:] {
			c, bc := ta.syms[id].callerCount, ta.syms[callerID].callerCount
			dep, bdep := ta.syms[id].callerDepth, ta.syms[callerID].callerDepth
			if c > bc || (c == bc && (dep < bdep || (dep == bdep && id < callerID))) {
				callerID = id
			}
		}
		if callerOcc := float64(ta.syms[callerID].callerCount) / float64(total); callerOcc >= occHigh {
			cf := ta.syms[callerID].callerFrame
			d = Diagnosis{
				RootCause:  view.Key(callerID),
				Sym:        callerID,
				File:       cf.File,
				Line:       cf.Line,
				Occurrence: callerOcc,
				ViaCaller:  true,
			}
		}
	}
	d.IsUI = view.Attrs(d.Sym)&stack.SymUI != 0
	return d, true
}
