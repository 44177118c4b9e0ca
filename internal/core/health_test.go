package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestHealthString pins the one-line rendering: the ten legacy counters
// always, the causal pair only when one of them is non-zero.
func TestHealthString(t *testing.T) {
	all := Health{
		PerfOpenFailures: 1, PerfOpenRetries: 2, CountersLost: 3, RenderLost: 4,
		StacksDropped: 5, StacksTruncated: 6, SamplerOverruns: 7, VerdictsDeferred: 8,
		LowConfidence: 9, Quarantines: 10, WorkerStacksLost: 11, CausalFallbacks: 12,
	}
	const legacy = "open-fail=1 retries=2 counters-lost=3 render-lost=4 stacks-dropped=5 stacks-truncated=6 overruns=7 deferred=8 low-confidence=9 quarantines=10"
	if got, want := all.String(), legacy+" worker-stacks-lost=11 causal-fallbacks=12"; got != want {
		t.Errorf("String() = %q\nwant        %q", got, want)
	}
	noCausal := all
	noCausal.WorkerStacksLost, noCausal.CausalFallbacks = 0, 0
	if got := noCausal.String(); got != legacy {
		t.Errorf("String() with a zero causal pair = %q\nwant %q", got, legacy)
	}
	oneCausal := noCausal
	oneCausal.CausalFallbacks = 3
	if got, want := oneCausal.String(), legacy+" worker-stacks-lost=0 causal-fallbacks=3"; got != want {
		t.Errorf("String() with one causal counter = %q\nwant %q", got, want)
	}
}

// TestHealthTable: healthCounters lists every Health field once, in struct
// order, with distinct stems and labels. Each stem is its field's JSON
// key, names a Doctor series, and keys the exported health section of a
// report that sets every field, which String labels too.
func TestHealthTable(t *testing.T) {
	typ := reflect.TypeOf(Health{})
	if len(healthCounters) != typ.NumField() {
		t.Fatalf("healthCounters has %d rows for %d Health fields", len(healthCounters), typ.NumField())
	}
	stems, labels := map[string]bool{}, map[string]bool{}
	var h Health
	for i, c := range healthCounters {
		f := typ.Field(i)
		if c.off != f.Offset || f.Type.Kind() != reflect.Int {
			t.Errorf("row %d (%s) does not address field %s", i, c.stem, f.Name)
		}
		if tag := f.Tag.Get("json"); tag != c.stem+",omitempty" {
			t.Errorf("%s: json tag %q, want %q", f.Name, tag, c.stem+",omitempty")
		}
		if stems[c.stem] || labels[c.label] || c.help == "" {
			t.Errorf("row %d: stem %q or label %q repeated, or help empty", i, c.stem, c.label)
		}
		stems[c.stem], labels[c.label] = true, true
		*c.field(&h) = i + 1
	}

	snap := New(Config{}).Metrics()
	for _, c := range healthCounters {
		if snap.Family("hangdoctor_health_"+c.stem+"_total") == nil {
			t.Errorf("no Doctor series for %s", c.stem)
		}
	}

	r := NewReport()
	r.Health = h
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Health map[string]int `json:"health"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Health) != len(healthCounters) {
		t.Errorf("exported health section has %d keys, want %d", len(doc.Health), len(healthCounters))
	}
	s := h.String()
	for i, c := range healthCounters {
		if doc.Health[c.stem] != i+1 {
			t.Errorf("exported %s = %d, want %d", c.stem, doc.Health[c.stem], i+1)
		}
		if !strings.Contains(s, fmt.Sprintf("%s=%d", c.label, i+1)) {
			t.Errorf("String() %q lacks %s=%d", s, c.label, i+1)
		}
	}
}
