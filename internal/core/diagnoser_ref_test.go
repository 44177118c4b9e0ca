package core

import (
	"strings"

	"hangdoctor/internal/android/api"
	"hangdoctor/internal/stack"
)

// analyzeTraces runs the Trace Analyzer with throwaway scratch buffers, the
// one-shot form tests use; the Doctor's hot path reuses its own
// TraceAnalyzer across hangs instead.
func analyzeTraces(traces []*stack.Stack, reg *api.Registry, occHigh float64) (Diagnosis, bool) {
	var ta TraceAnalyzer
	return ta.Analyze(traces, reg, occHigh)
}

// classOf splits a class.method key back into its class part.
func classOf(key string) string {
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		return key[:i]
	}
	return key
}

// analyzeTracesReference is the retained string-map reference
// implementation of the Trace Analyzer: maps keyed by Frame.Key() strings,
// per-trace seen-sets, string-path UI classification — the shape the
// ID-based TraceAnalyzer replaced. It exists solely as the differential
// oracle: TestAnalyzeTracesDifferential runs both over randomized
// corpus-derived traces and asserts identical Diagnosis output, including
// tie-break cases (ties resolve to the smallest symbol ID in both). Keep
// its semantics in lockstep with TraceAnalyzer.Analyze; it is not called
// outside tests.
func analyzeTracesReference(traces []*stack.Stack, reg *api.Registry, occHigh float64) (Diagnosis, bool) {
	type info struct {
		count int
		frame stack.Frame
		depth int // cumulative frame index, for closest-to-leaf tie-breaks
		sym   stack.SymID
	}
	leaf := map[string]*info{}
	caller := map[string]*info{}
	total := 0
	for _, tr := range traces {
		if tr.Depth() == 0 {
			continue
		}
		total++
		lf := tr.Leaf()
		if li := leaf[lf.Key()]; li != nil {
			li.count++
		} else {
			leaf[lf.Key()] = &info{count: 1, frame: lf, sym: reg.SymOf(lf)}
		}
		seen := map[string]bool{lf.Key(): true}
		for i := 1; i < len(tr.Frames); i++ {
			f := tr.Frames[i]
			if api.IsFrameworkClass(f.Class) || seen[f.Key()] {
				continue
			}
			seen[f.Key()] = true
			if ci := caller[f.Key()]; ci != nil {
				ci.count++
				ci.depth += i
			} else {
				caller[f.Key()] = &info{count: 1, frame: f, depth: i, sym: reg.SymOf(f)}
			}
		}
	}
	if total == 0 {
		return Diagnosis{}, false
	}

	pick := func(m map[string]*info) (string, *info) {
		var bestKey string
		var best *info
		for k, i := range m {
			if best == nil || i.count > best.count ||
				(i.count == best.count && (i.depth < best.depth ||
					(i.depth == best.depth && i.sym < best.sym))) {
				best, bestKey = i, k
			}
		}
		return bestKey, best
	}

	leafKey, leafInfo := pick(leaf)
	d := Diagnosis{
		RootCause:  leafKey,
		Sym:        leafInfo.sym,
		File:       leafInfo.frame.File,
		Line:       leafInfo.frame.Line,
		Occurrence: float64(leafInfo.count) / float64(total),
	}
	if d.Occurrence < occHigh && len(caller) > 0 {
		callerKey, callerInfo := pick(caller)
		callerOcc := float64(callerInfo.count) / float64(total)
		if callerOcc >= occHigh {
			d = Diagnosis{
				RootCause:  callerKey,
				Sym:        callerInfo.sym,
				File:       callerInfo.frame.File,
				Line:       callerInfo.frame.Line,
				Occurrence: callerOcc,
				ViaCaller:  true,
			}
		}
	}
	d.IsUI = reg.IsUIClass(classOf(d.RootCause))
	return d, true
}
