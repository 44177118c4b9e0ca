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

	// Dense per-symbol scratch, indexed by stack.SymID.
	leafMark    []uint64
	leafCount   []int32
	leafFrame   []stack.Frame // first-seen leaf frame (File/Line source)
	callerMark  []uint64
	callerCount []int32
	callerDepth []int32       // cumulative frame index: closest-to-leaf tie-break
	callerFrame []stack.Frame // first-seen caller frame
	seenMark    []uint64

	// Touched symbol lists bound the verdict scan to symbols this hang
	// actually saw.
	leafTouched   []stack.SymID
	callerTouched []stack.SymID
}

// grow extends every per-symbol array to cover n symbol IDs, preserving
// live marks (growth can happen mid-hang when a foreign frame interns a new
// symbol).
func (ta *TraceAnalyzer) grow(n int) {
	if n <= len(ta.leafMark) {
		return
	}
	// Grow geometrically so repeated single-symbol interning stays
	// amortized.
	if c := 2 * len(ta.leafMark); n < c {
		n = c
	}
	grow64 := func(s []uint64) []uint64 {
		g := make([]uint64, n)
		copy(g, s)
		return g
	}
	grow32 := func(s []int32) []int32 {
		g := make([]int32, n)
		copy(g, s)
		return g
	}
	growF := func(s []stack.Frame) []stack.Frame {
		g := make([]stack.Frame, n)
		copy(g, s)
		return g
	}
	ta.leafMark = grow64(ta.leafMark)
	ta.leafCount = grow32(ta.leafCount)
	ta.leafFrame = growF(ta.leafFrame)
	ta.callerMark = grow64(ta.callerMark)
	ta.callerCount = grow32(ta.callerCount)
	ta.callerDepth = grow32(ta.callerDepth)
	ta.callerFrame = growF(ta.callerFrame)
	ta.seenMark = grow64(ta.seenMark)
}

// sym returns the frame's symbol ID, interning externally built frames on
// the fly and keeping the scratch arrays and view in range. Corpus frames
// carry cached IDs, so the steady-state cost is the nil check.
func (ta *TraceAnalyzer) sym(f *stack.Frame, reg *api.Registry, view *stack.View) stack.SymID {
	id := f.Sym
	if id == stack.NoSym {
		id = reg.SymOf(*f)
	}
	if int(id) >= len(ta.leafMark) {
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
		if ta.leafMark[lid] != ta.gen {
			ta.leafMark[lid] = ta.gen
			ta.leafCount[lid] = 1
			ta.leafFrame[lid] = *lf
			ta.leafTouched = append(ta.leafTouched, lid)
		} else {
			ta.leafCount[lid]++
		}
		ta.seenMark[lid] = ta.traceGen
		for i := 1; i < len(frames); i++ {
			f := &frames[i]
			id := ta.sym(f, reg, &view)
			if view.Attrs(id)&stack.SymFramework != 0 || ta.seenMark[id] == ta.traceGen {
				continue
			}
			ta.seenMark[id] = ta.traceGen
			if ta.callerMark[id] != ta.gen {
				ta.callerMark[id] = ta.gen
				ta.callerCount[id] = 1
				ta.callerDepth[id] = int32(i)
				ta.callerFrame[id] = *f
				ta.callerTouched = append(ta.callerTouched, id)
			} else {
				ta.callerCount[id]++
				ta.callerDepth[id] += int32(i)
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
		c, bc := ta.leafCount[id], ta.leafCount[leafID]
		if c > bc || (c == bc && id < leafID) {
			leafID = id
		}
	}
	lf := &ta.leafFrame[leafID]
	d := Diagnosis{
		RootCause:  view.Key(leafID),
		Sym:        leafID,
		File:       lf.File,
		Line:       lf.Line,
		Occurrence: float64(ta.leafCount[leafID]) / float64(total),
	}
	if d.Occurrence < occHigh && len(ta.callerTouched) > 0 {
		// Caller verdict: highest count, closest to the leaf (smallest
		// cumulative depth), then smallest symbol ID.
		callerID := ta.callerTouched[0]
		for _, id := range ta.callerTouched[1:] {
			c, bc := ta.callerCount[id], ta.callerCount[callerID]
			dep, bdep := ta.callerDepth[id], ta.callerDepth[callerID]
			if c > bc || (c == bc && (dep < bdep || (dep == bdep && id < callerID))) {
				callerID = id
			}
		}
		if callerOcc := float64(ta.callerCount[callerID]) / float64(total); callerOcc >= occHigh {
			cf := &ta.callerFrame[callerID]
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
