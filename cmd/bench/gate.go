package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fleet"
)

// referenceFold is the single-node truth for a set of acked uploads: the
// serial core.FoldReports over every distinct upload. The fleet drops an
// upload whose content it already made durable, so duplicates (same
// fleet.ReportUploadID) count once here too.
func referenceFold(reps []*core.Report) *core.Report {
	seen := make(map[fleet.UploadID]bool, len(reps))
	uniq := make([]*core.Report, 0, len(reps))
	for _, rep := range reps {
		id, _ := fleet.ReportUploadID(rep)
		if !seen[id] {
			seen[id] = true
			uniq = append(uniq, rep)
		}
	}
	return core.FoldReports(uniq...)
}

// entryMeta is the part of a report entry a merge does not combine: a
// merged entry keeps the metadata of whichever upload reached it first.
type entryMeta struct {
	file string
	line int
	via  bool
}

// conflictingMeta finds the entry keys whose uploads disagree on their
// metadata and gives each a canonical value: the smallest file and line
// seen, and ViaCaller if any upload set it. Hang Doctor's caller
// attribution can flag the same root cause ViaCaller on one device and
// not on another, and for such keys the fleet's result depends on upload
// arrival order.
func conflictingMeta(reps []*core.Report) map[string]entryMeta {
	seen := map[string]entryMeta{}
	conflict := map[string]entryMeta{}
	for _, rep := range reps {
		for _, e := range rep.Entries() {
			key := core.EntryKey(e.App, e.ActionUID, e.RootCause)
			m := entryMeta{e.File, e.Line, e.ViaCaller}
			prev, ok := seen[key]
			if !ok || prev == m {
				seen[key] = m
				continue
			}
			if c, ok := conflict[key]; ok {
				prev = c
			}
			if m.file < prev.file || (m.file == prev.file && m.line < prev.line) {
				prev.file, prev.line = m.file, m.line
			}
			prev.via = prev.via || m.via
			conflict[key] = prev
		}
	}
	return conflict
}

// canonical returns rep's canonical binary encoding with the metadata of
// the conflicting keys replaced by its canonical value.
func canonical(rep *core.Report, conflict map[string]entryMeta) []byte {
	if len(conflict) > 0 {
		rep = core.FoldReports(rep) // a private deep copy to rewrite
		for _, e := range rep.Entries() {
			if m, ok := conflict[core.EntryKey(e.App, e.ActionUID, e.RootCause)]; ok {
				e.File, e.Line, e.ViaCaller = m.file, m.line, m.via
			}
		}
	}
	return core.AppendReportBinary(nil, rep)
}

// gate checks that the region's quiescent report is byte-identical to the
// reference fold of every acked upload and records the region's digest.
// Entry keys whose uploads disagree on metadata are compared, and
// digested, with that metadata canonicalized; everything a merge combines
// is compared exactly.
func gate(r *result, region *core.Report, acked []*core.Report) {
	if region == nil {
		r.fail("no quiescent poll round succeeded")
		return
	}
	conflict := conflictingMeta(acked)
	if len(conflict) > 0 {
		r.notes = append(r.notes, fmt.Sprintf("%d entry keys carry order-dependent metadata (uploads disagree on file/line/ViaCaller); compared canonicalized", len(conflict)))
	}
	got := canonical(region, conflict)
	r.digest = digest(got)
	want := referenceFold(acked)
	if !bytes.Equal(got, canonical(want, conflict)) {
		r.fail("regional report (%d entries, %d hangs) differs from the fold of %d acked uploads (%d entries, %d hangs)",
			region.Len(), region.TotalHangs(), len(acked), want.Len(), want.TotalHangs())
	}
}

// digest is the hex sha256 of a report's canonical binary encoding.
func digest(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}
