package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"hangdoctor/internal/simclock"
)

// reportWire is the JSON wire format a device uploads: one document per
// report, schema-versioned so the fleet service can evolve.
type reportWire struct {
	Version int         `json:"version"`
	Entries []entryWire `json:"entries"`
	// Health is present only when the device's measurement plane degraded,
	// so fault-free uploads are byte-identical to the pre-health schema.
	Health *healthWire `json:"health,omitempty"`
}

type healthWire struct {
	PerfOpenFailures int `json:"perf_open_failures,omitempty"`
	PerfOpenRetries  int `json:"perf_open_retries,omitempty"`
	CountersLost     int `json:"counters_lost,omitempty"`
	RenderLost       int `json:"render_lost,omitempty"`
	StacksDropped    int `json:"stacks_dropped,omitempty"`
	StacksTruncated  int `json:"stacks_truncated,omitempty"`
	SamplerOverruns  int `json:"sampler_overruns,omitempty"`
	VerdictsDeferred int `json:"verdicts_deferred,omitempty"`
	LowConfidence    int `json:"low_confidence,omitempty"`
	Quarantines      int `json:"quarantines,omitempty"`
	WorkerStacksLost int `json:"worker_stacks_lost,omitempty"`
	CausalFallbacks  int `json:"causal_fallbacks,omitempty"`
}

func (hw healthWire) toHealth() Health { return Health(hw) }

type entryWire struct {
	App         string   `json:"app"`
	ActionUID   string   `json:"action_uid"`
	RootCause   string   `json:"root_cause"`
	File        string   `json:"file"`
	Line        int      `json:"line"`
	ViaCaller   bool     `json:"via_caller,omitempty"`
	Hangs       int      `json:"hangs"`
	Devices     []string `json:"devices"`
	MaxResponse int64    `json:"max_response_ns"`
	SumResponse int64    `json:"sum_response_ns"`
	// Causal-chain provenance, all omitted for plain main-thread rows so
	// causal-free documents stay byte-identical to the pre-causal schema.
	ChainKind          string `json:"chain_kind,omitempty"`
	ChainOriginAction  string `json:"chain_origin_action,omitempty"`
	ChainOriginSite    string `json:"chain_origin_site,omitempty"`
	ChainSharePermille int    `json:"chain_share_permille,omitempty"`
}

const reportWireVersion = 1

// Export writes the report as JSON. Per the paper's privacy posture (§3.2),
// the payload contains only the blocking operations that caused soft hangs
// — no user content, no full traces; combine with Anonymize before upload
// to strip device identifiers.
func (r *Report) Export(w io.Writer) error {
	doc := reportWire{Version: reportWireVersion}
	if !r.Health.Zero() {
		hw := healthWire(r.Health)
		doc.Health = &hw
	}
	for _, e := range r.Entries() {
		devs := make([]string, 0, len(e.Devices))
		for d := range e.Devices {
			devs = append(devs, d)
		}
		sort.Strings(devs)
		doc.Entries = append(doc.Entries, entryWire{
			App: e.App, ActionUID: e.ActionUID, RootCause: e.RootCause,
			File: e.File, Line: e.Line, ViaCaller: e.ViaCaller,
			Hangs: e.Hangs, Devices: devs,
			MaxResponse: int64(e.MaxResponse), SumResponse: int64(e.SumResponse),
			ChainKind:          e.Chain.Kind,
			ChainOriginAction:  e.Chain.OriginAction,
			ChainOriginSite:    e.Chain.OriginSite,
			ChainSharePermille: e.Chain.SharePermille,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ImportReport parses a JSON document produced by Export, rejecting
// corrupt uploads — negative counts or response times, empty root causes,
// negative health counters — with descriptive errors instead of silently
// merging garbage into the fleet report.
func ImportReport(rd io.Reader) (*Report, error) {
	var doc reportWire
	if err := json.NewDecoder(rd).Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: decoding report: %w", err)
	}
	if doc.Version != reportWireVersion {
		return nil, fmt.Errorf("core: unsupported report version %d", doc.Version)
	}
	out := NewReport()
	if doc.Health != nil {
		h := doc.Health.toHealth()
		if h.PerfOpenFailures < 0 || h.PerfOpenRetries < 0 || h.CountersLost < 0 ||
			h.RenderLost < 0 || h.StacksDropped < 0 || h.StacksTruncated < 0 ||
			h.SamplerOverruns < 0 || h.VerdictsDeferred < 0 || h.LowConfidence < 0 ||
			h.Quarantines < 0 || h.WorkerStacksLost < 0 || h.CausalFallbacks < 0 {
			return nil, fmt.Errorf("core: negative health counter in %+v", h)
		}
		out.Health = h
	}
	for _, ew := range doc.Entries {
		if ew.RootCause == "" {
			return nil, fmt.Errorf("core: entry for app %q action %q has empty root cause", ew.App, ew.ActionUID)
		}
		if ew.Hangs <= 0 {
			return nil, fmt.Errorf("core: entry %s/%s has non-positive hang count %d", ew.App, ew.RootCause, ew.Hangs)
		}
		if ew.MaxResponse < 0 {
			return nil, fmt.Errorf("core: entry %s/%s has negative max response %d", ew.App, ew.RootCause, ew.MaxResponse)
		}
		if ew.SumResponse < 0 {
			return nil, fmt.Errorf("core: entry %s/%s has negative response sum %d", ew.App, ew.RootCause, ew.SumResponse)
		}
		if ew.Line < 0 {
			return nil, fmt.Errorf("core: entry %s/%s has negative line %d", ew.App, ew.RootCause, ew.Line)
		}
		if ew.ChainSharePermille < 0 || ew.ChainSharePermille > 1000 {
			return nil, fmt.Errorf("core: entry %s/%s has chain share %d out of [0,1000]", ew.App, ew.RootCause, ew.ChainSharePermille)
		}
		src := ReportEntry{
			App: ew.App, ActionUID: ew.ActionUID, RootCause: ew.RootCause,
			File: ew.File, Line: ew.Line, ViaCaller: ew.ViaCaller,
			Hangs:       ew.Hangs,
			MaxResponse: simclock.Duration(ew.MaxResponse),
			SumResponse: simclock.Duration(ew.SumResponse),
			Chain: CausalChain{
				Kind:          ew.ChainKind,
				OriginAction:  ew.ChainOriginAction,
				OriginSite:    ew.ChainOriginSite,
				SharePermille: ew.ChainSharePermille,
			},
		}
		// Entries sharing a key merge, as the binary decoder's do.
		out.add(entryKey(ew.App, ew.ActionUID, ew.RootCause), &src, ew.Devices)
	}
	return out, nil
}

// Anonymize returns a copy of the report with every device identifier
// replaced by a salted hash, so the fleet service can still count distinct
// devices per entry without learning who they are.
func (r *Report) Anonymize(salt string) *Report {
	out := NewReport()
	out.Health = r.Health
	for key, e := range r.entries {
		devs := make([]string, 0, len(e.Devices))
		for d := range e.Devices {
			h := fnv.New64a()
			h.Write([]byte(salt))
			h.Write([]byte(d))
			devs = append(devs, fmt.Sprintf("dev-%016x", h.Sum64()))
		}
		src := *e
		src.Devices = nil
		out.add(key, &src, devs)
	}
	return out
}
