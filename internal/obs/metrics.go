// Package obs is the observability substrate of the repository: a
// stdlib-only metrics layer (atomic counters, gauges, exact-sample
// summaries, labeled families, a registry with Prometheus-text export)
// plus a structured run-journal writer (JSONL, schema
// "bfbp.journal.v1").
//
// Counters are single atomic adds and gauges a compare-and-swap on
// float bits; a summary appends its sample under a mutex, which suits
// the per-run rates it is fed. Every metric type is nil-safe: methods
// on a nil *Counter, *Gauge, or *Summary are no-ops, which lets
// instrumented code hold optional metric handles without branching at
// every observation site.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value that can go up and down. It
// holds a float64, so one type serves counts (workers, queue depth) and
// fractions (occupancy, saturation) alike; Add is a CAS on the bits.
type Gauge struct {
	v atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(math.Float64bits(v))
}

// Add adds v (which may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	casAddFloat(&g.v, v)
}

// casAddFloat adds v to the float64 bits stored in a.
func casAddFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// kind is what a family holds, spelled as its Prometheus TYPE keyword.
type kind string

const (
	counterKind kind = "counter"
	gaugeKind   kind = "gauge"
	summaryKind kind = "summary"
)

// series is one labeled instance within a family.
type series struct {
	labels  []string // label values, parallel to family.labelNames
	counter *Counter
	gauge   *Gauge
	summary *Summary
}

// family groups all series of one metric name.
type family struct {
	name       string
	help       string
	kind       kind
	labelNames []string

	mu     sync.Mutex
	series map[string]*series
}

// seriesKey joins label values into a map key. \x1f cannot appear in
// reasonable label values.
func seriesKey(values []string) string { return strings.Join(values, "\x1f") }

func (f *family) get(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labels: append([]string(nil), values...)}
		switch f.kind {
		case counterKind:
			s.counter = &Counter{}
		case gaugeKind:
			s.gauge = &Gauge{}
		case summaryKind:
			s.summary = &Summary{}
		}
		f.series[key] = s
	}
	return s
}

// sortedSeries returns the family's series ordered by label values, for
// deterministic export.
func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.series[k]
	}
	return out
}

// Registry holds named metrics and renders them to the export formats.
// The zero value is not usable; call NewRegistry. Registration is
// idempotent: asking for an existing name with the same kind returns
// the existing metric, and a kind mismatch panics (a programming
// error, like expvar's duplicate-name panic).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, k kind, labelNames []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{
			name:       name,
			help:       help,
			kind:       k,
			labelNames: append([]string(nil), labelNames...),
			series:     make(map[string]*series),
		}
		r.families[name] = f
		return f
	}
	if f.kind != k || len(f.labelNames) != len(labelNames) {
		panic(fmt.Sprintf("obs: metric %s redeclared as %s with labels %v", name, k, labelNames))
	}
	return f
}

// sortedFamilies returns families in name order, for deterministic
// export.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*family, len(names))
	for i, n := range names {
		out[i] = r.families[n]
	}
	return out
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, counterKind, nil).get(nil).counter
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, gaugeKind, nil).get(nil).gauge
}

// CounterFamily is a labeled counter family; With resolves one series.
type CounterFamily struct{ f *family }

// CounterFamily registers (or returns) a counter family keyed by the
// given label names.
func (r *Registry) CounterFamily(name, help string, labelNames ...string) *CounterFamily {
	return &CounterFamily{r.family(name, help, counterKind, labelNames)}
}

// With returns the counter for the given label values, creating it on
// first use. The returned handle is cacheable and lock-free to update.
func (cf *CounterFamily) With(labelValues ...string) *Counter {
	if cf == nil {
		return nil
	}
	return cf.f.get(labelValues).counter
}

// GaugeFamily is a labeled gauge family; With resolves one series.
type GaugeFamily struct{ f *family }

// GaugeFamily registers (or returns) a gauge family keyed by the given
// label names.
func (r *Registry) GaugeFamily(name, help string, labelNames ...string) *GaugeFamily {
	return &GaugeFamily{r.family(name, help, gaugeKind, labelNames)}
}

// With returns the gauge for the given label values.
func (gf *GaugeFamily) With(labelValues ...string) *Gauge {
	if gf == nil {
		return nil
	}
	return gf.f.get(labelValues).gauge
}

// QuantileFamily is a labeled summary family, exported with quantile
// series; With resolves one series.
type QuantileFamily struct{ f *family }

// QuantileFamily registers (or returns) a summary family keyed by the
// given label names.
func (r *Registry) QuantileFamily(name, help string, labelNames ...string) *QuantileFamily {
	return &QuantileFamily{r.family(name, help, summaryKind, labelNames)}
}

// With returns the summary for the given label values.
func (qf *QuantileFamily) With(labelValues ...string) *Summary {
	if qf == nil {
		return nil
	}
	return qf.f.get(labelValues).summary
}
