// Package obs is the observability substrate of the repository: an
// allocation-light, stdlib-only metrics layer (atomic counters, gauges,
// fixed-bucket histograms, labeled families, a registry with
// Prometheus-text export) plus a structured
// run-journal writer (JSONL, schema "bfbp.journal.v1").
//
// The design targets the suite engine's hot paths: observing a metric
// never allocates and never takes a lock — counters and gauges are
// single atomic adds, histograms are one bucket scan plus two atomics —
// so instrumentation can stay enabled on million-branch simulation
// loops. Every metric type is nil-safe: methods on a nil *Counter,
// *Gauge, or *Histogram are no-ops, which lets instrumented code hold
// optional metric handles without branching at every observation site.
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

// Gauge is an atomic instantaneous value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: bounds are inclusive upper limits with an implicit final +Inf
// bucket, and the exported bucket counts are cumulative. Observations
// are lock-free: one linear bucket scan (bucket counts are small, ~20)
// plus two atomic updates.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram with the given upper bounds, which
// must be sorted ascending. Most callers get histograms from a Registry
// instead.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveN records n samples of the same value in one bucket scan —
// the bulk form used to replay pre-bucketed counts (e.g. a run's
// confidence-margin distribution) into a histogram without n Observe
// calls.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Snapshot returns the bucket upper bounds and the per-bucket
// (non-cumulative) counts, with the final entry counting observations
// above the last bound.
func (h *Histogram) Snapshot() (bounds []float64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// ExpBuckets returns n ascending bucket bounds starting at start and
// multiplying by factor — the standard latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// kind discriminates what a family holds.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
	floatGaugeKind
	quantileKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	case floatGaugeKind:
		return "floatgauge"
	default:
		return "quantile"
	}
}

// promType is the Prometheus TYPE keyword for a kind: float gauges are
// plain gauges on the wire, quantile histograms are summaries.
func (k kind) promType() string {
	switch k {
	case floatGaugeKind:
		return "gauge"
	case quantileKind:
		return "summary"
	default:
		return k.String()
	}
}

// series is one labeled instance within a family.
type series struct {
	labels  []string // label values, parallel to family.labelNames
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fgauge  *FloatGauge
	quant   *QuantileHistogram
}

// family groups all series of one metric name.
type family struct {
	name       string
	help       string
	kind       kind
	labelNames []string
	buckets    []float64 // histogram families only

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
		case histogramKind:
			s.hist = NewHistogram(f.buckets)
		case floatGaugeKind:
			s.fgauge = &FloatGauge{}
		case quantileKind:
			s.quant = NewQuantileHistogram()
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

func (r *Registry) family(name, help string, k kind, labelNames []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{
			name:       name,
			help:       help,
			kind:       k,
			labelNames: append([]string(nil), labelNames...),
			buckets:    append([]float64(nil), buckets...),
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
	return r.family(name, help, counterKind, nil, nil).get(nil).counter
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, gaugeKind, nil, nil).get(nil).gauge
}

// Histogram registers (or returns) an unlabeled histogram with the
// given bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.family(name, help, histogramKind, nil, buckets).get(nil).hist
}

// CounterFamily is a labeled counter family; With resolves one series.
type CounterFamily struct{ f *family }

// CounterFamily registers (or returns) a counter family keyed by the
// given label names.
func (r *Registry) CounterFamily(name, help string, labelNames ...string) *CounterFamily {
	return &CounterFamily{r.family(name, help, counterKind, labelNames, nil)}
}

// With returns the counter for the given label values, creating it on
// first use. The returned handle is cacheable and lock-free to update.
func (cf *CounterFamily) With(labelValues ...string) *Counter {
	if cf == nil {
		return nil
	}
	return cf.f.get(labelValues).counter
}

// HistogramFamily is a labeled histogram family; With resolves one
// series.
type HistogramFamily struct{ f *family }

// HistogramFamily registers (or returns) a histogram family with shared
// buckets, keyed by the given label names.
func (r *Registry) HistogramFamily(name, help string, buckets []float64, labelNames ...string) *HistogramFamily {
	return &HistogramFamily{r.family(name, help, histogramKind, labelNames, buckets)}
}

// With returns the histogram for the given label values.
func (hf *HistogramFamily) With(labelValues ...string) *Histogram {
	if hf == nil {
		return nil
	}
	return hf.f.get(labelValues).hist
}

// FloatGaugeFamily is a labeled float-gauge family; With resolves one
// series.
type FloatGaugeFamily struct{ f *family }

// FloatGaugeFamily registers (or returns) a float-gauge family keyed by
// the given label names.
func (r *Registry) FloatGaugeFamily(name, help string, labelNames ...string) *FloatGaugeFamily {
	return &FloatGaugeFamily{r.family(name, help, floatGaugeKind, labelNames, nil)}
}

// With returns the float gauge for the given label values.
func (gf *FloatGaugeFamily) With(labelValues ...string) *FloatGauge {
	if gf == nil {
		return nil
	}
	return gf.f.get(labelValues).fgauge
}

// Quantile registers (or returns) an unlabeled quantile histogram —
// the log-linear HDR-style instrument exported as a Prometheus summary
// with p50/p90/p99/p999 series.
func (r *Registry) Quantile(name, help string) *QuantileHistogram {
	return r.family(name, help, quantileKind, nil, nil).get(nil).quant
}

// QuantileFamily is a labeled quantile-histogram family; With resolves
// one series.
type QuantileFamily struct{ f *family }

// QuantileFamily registers (or returns) a quantile-histogram family
// keyed by the given label names.
func (r *Registry) QuantileFamily(name, help string, labelNames ...string) *QuantileFamily {
	return &QuantileFamily{r.family(name, help, quantileKind, labelNames, nil)}
}

// With returns the quantile histogram for the given label values.
func (qf *QuantileFamily) With(labelValues ...string) *QuantileHistogram {
	if qf == nil {
		return nil
	}
	return qf.f.get(labelValues).quant
}
