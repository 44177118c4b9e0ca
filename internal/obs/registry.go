package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind discriminates metric families.
type Kind string

// Family kinds, matching the Prometheus TYPE vocabulary.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// series is one (label values → metric) instance inside a family; exactly
// one of c/g/h/fn is set, matching the family kind.
type series struct {
	labelValues []string
	c           *Counter
	g           *Gauge
	h           *Histogram
	fn          func() int64
}

// family is one named metric with a fixed kind, help string, and label
// schema. Unlabeled metrics are a family with one series under the empty
// key.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram families only

	mu     sync.RWMutex
	series map[string]*series
}

// Registry is a set of metric families. All methods are safe for concurrent
// use; registration takes locks, but the handles it returns operate
// lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// validName reports whether s is a legal metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]* for metrics (colons allowed), with digits
// forbidden in first position.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// lookup fetches or creates a family, enforcing that re-registration under
// the same name agrees on kind and label schema (help may repeat freely but
// must not conflict). Registration is idempotent so two subsystems sharing
// a registry can both declare the family they feed.
func (r *Registry) lookup(name, help string, kind Kind, labels []string, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || strings.Contains(l, ":") {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind,
			labels: append([]string(nil), labels...),
			series: map[string]*series{},
		}
		if kind == KindHistogram {
			f.bounds = append([]float64(nil), bounds...)
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	if len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered with different labels", name))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("obs: metric %q re-registered with different labels", name))
		}
	}
	if kind == KindHistogram && !equalBounds(f.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
	}
	if help != "" && f.help != "" && help != f.help {
		panic(fmt.Sprintf("obs: metric %q re-registered with conflicting help", name))
	}
	if f.help == "" {
		f.help = help
	}
	return f
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seriesKey joins label values with an unprintable separator; label values
// themselves are free-form UTF-8.
func seriesKey(values []string) string { return strings.Join(values, "\x00") }

// get fetches or creates the series for values, building the metric with
// mk. The double-checked read path keeps repeated With() lookups cheap.
func (f *family) get(values []string, mk func(s *series)) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	mk(s)
	f.series[key] = s
	return s
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, KindCounter, nil, nil)
	return f.get(nil, func(s *series) { s.c = &Counter{} }).c
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, KindGauge, nil, nil)
	return f.get(nil, func(s *series) { s.g = &Gauge{} }).g
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// upper bucket bounds (strictly increasing; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.lookup(name, help, KindHistogram, nil, bounds)
	return f.get(nil, func(s *series) { s.h = newHistogram(f.bounds) }).h
}

// CounterFunc registers a callback counter: fn is evaluated at snapshot and
// exposition time. Use it to project an existing monotonic variable (a
// plain struct field owned by single-threaded code) into the registry
// without double bookkeeping; fn must be safe to call from the scraping
// goroutine. Re-registering an existing name replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	f := r.lookup(name, help, KindCounter, nil, nil)
	s := f.get(nil, func(s *series) {})
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// GaugeFunc registers a callback gauge (live queue depths and the like);
// the same caveats as CounterFunc apply.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	f := r.lookup(name, help, KindGauge, nil, nil)
	s := f.get(nil, func(s *series) {})
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if len(labelNames) == 0 {
		panic("obs: CounterVec needs at least one label")
	}
	return &CounterVec{r.lookup(name, help, KindCounter, labelNames, nil)}
}

// With returns the counter for the given label values, creating it on first
// use. Callers cache the handle; With itself may allocate.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.get(labelValues, func(s *series) { s.c = &Counter{} }).c
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	if len(labelNames) == 0 {
		panic("obs: GaugeVec needs at least one label")
	}
	return &GaugeVec{r.lookup(name, help, KindGauge, labelNames, nil)}
}

// With returns the gauge for the given label values, creating it on first
// use.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.get(labelValues, func(s *series) { s.g = &Gauge{} }).g
}

// sortedFamilies returns the families ordered by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
