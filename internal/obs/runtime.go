package obs

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// RuntimeCollector bridges the Go runtime's own instrumentation
// (runtime/metrics) into a Registry, so GC pauses, heap size,
// goroutine count, and scheduler latency show up next to the engine
// metrics on /metrics and in the heartbeat line.
//
// Collect performs one deterministic scrape — tests call it directly;
// live stacks call Start(interval) for a ticker-driven loop (the
// telemetry layer starts one at a 1 s period). All methods are
// nil-safe.
type RuntimeCollector struct {
	samples []metrics.Sample

	heapBytes  *Gauge
	goroutines *Gauge
	gcCycles   *Gauge
	gcPause    map[string]*FloatGauge // label q -> gauge
	schedLat   map[string]*FloatGauge

	mu      sync.Mutex
	stop    chan struct{}
	stopped chan struct{}
}

// Runtime metric names read from runtime/metrics. Indices into
// RuntimeCollector.samples.
const (
	rmHeapBytes = iota
	rmGoroutines
	rmGCCycles
	rmGCPauses
	rmSchedLat
	rmCount
)

// runtimeQuantileLabels are the per-distribution points exported for
// the runtime histograms (GC pauses, scheduler latency).
var runtimeQuantileLabels = []string{"0.5", "0.99", "max"}

// NewRuntimeCollector registers the bfbp_runtime_* metric set on reg
// and returns a collector that fills it. Metrics unknown to the
// running Go version are skipped silently (their gauges stay zero).
func NewRuntimeCollector(reg *Registry) *RuntimeCollector {
	c := &RuntimeCollector{
		samples: make([]metrics.Sample, rmCount),
		heapBytes: reg.Gauge("bfbp_runtime_heap_bytes",
			"bytes of live heap objects (runtime/metrics)"),
		goroutines: reg.Gauge("bfbp_runtime_goroutines",
			"live goroutine count"),
		gcCycles: reg.Gauge("bfbp_runtime_gc_cycles_total",
			"completed GC cycles"),
		gcPause:  make(map[string]*FloatGauge),
		schedLat: make(map[string]*FloatGauge),
	}
	c.samples[rmHeapBytes].Name = "/memory/classes/heap/objects:bytes"
	c.samples[rmGoroutines].Name = "/sched/goroutines:goroutines"
	c.samples[rmGCCycles].Name = "/gc/cycles/total:gc-cycles"
	c.samples[rmGCPauses].Name = "/gc/pauses:seconds"
	c.samples[rmSchedLat].Name = "/sched/latencies:seconds"
	pause := reg.FloatGaugeFamily("bfbp_runtime_gc_pause_seconds",
		"GC stop-the-world pause distribution points", "q")
	lat := reg.FloatGaugeFamily("bfbp_runtime_sched_latency_seconds",
		"goroutine scheduling latency distribution points", "q")
	for _, q := range runtimeQuantileLabels {
		c.gcPause[q] = pause.With(q)
		c.schedLat[q] = lat.With(q)
	}
	return c
}

// Collect reads one runtime/metrics snapshot into the registered
// gauges. Safe for concurrent use; nil-safe.
func (c *RuntimeCollector) Collect() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	metrics.Read(c.samples)
	if v := c.samples[rmHeapBytes].Value; v.Kind() == metrics.KindUint64 {
		c.heapBytes.Set(int64(v.Uint64()))
	}
	if v := c.samples[rmGoroutines].Value; v.Kind() == metrics.KindUint64 {
		c.goroutines.Set(int64(v.Uint64()))
	}
	if v := c.samples[rmGCCycles].Value; v.Kind() == metrics.KindUint64 {
		c.gcCycles.Set(int64(v.Uint64()))
	}
	if v := c.samples[rmGCPauses].Value; v.Kind() == metrics.KindFloat64Histogram {
		setRuntimeQuantiles(c.gcPause, v.Float64Histogram())
	}
	if v := c.samples[rmSchedLat].Value; v.Kind() == metrics.KindFloat64Histogram {
		setRuntimeQuantiles(c.schedLat, v.Float64Histogram())
	}
}

// setRuntimeQuantiles fills a {q} gauge set from a runtime histogram.
func setRuntimeQuantiles(gauges map[string]*FloatGauge, h *metrics.Float64Histogram) {
	gauges["0.5"].Set(runtimeHistQuantile(h, 0.5))
	gauges["0.99"].Set(runtimeHistQuantile(h, 0.99))
	gauges["max"].Set(runtimeHistQuantile(h, 1))
}

// runtimeHistQuantile estimates the q-th quantile of a
// runtime/metrics histogram as the upper edge of the bucket holding
// the rank-selected sample (a conservative estimate: never below the
// true quantile by more than one bucket). Infinite edge buckets fall
// back to their finite side. Returns 0 for an empty histogram.
func runtimeHistQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if c == 0 || cum < rank {
			continue
		}
		// Bucket i spans Buckets[i]..Buckets[i+1].
		hi := h.Buckets[i+1]
		if !math.IsInf(hi, +1) {
			return hi
		}
		if lo := h.Buckets[i]; !math.IsInf(lo, -1) {
			return lo
		}
		return 0
	}
	return 0
}

// Start launches a ticker-driven collection loop at the given period,
// after one immediate Collect so gauges are live before the first
// tick. No-op when already started, on a nil collector, or for a
// non-positive interval.
func (c *RuntimeCollector) Start(interval time.Duration) {
	if c == nil || interval <= 0 {
		return
	}
	c.mu.Lock()
	if c.stop != nil {
		c.mu.Unlock()
		return
	}
	c.stop = make(chan struct{})
	c.stopped = make(chan struct{})
	stop, stopped := c.stop, c.stopped
	c.mu.Unlock()
	c.Collect()
	go func() {
		defer close(stopped)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				c.Collect()
			}
		}
	}()
}

// Stop terminates the collection loop and waits for its goroutine to
// exit. Idempotent and nil-safe.
func (c *RuntimeCollector) Stop() {
	if c == nil {
		return
	}
	c.mu.Lock()
	stop, stopped := c.stop, c.stopped
	c.stop, c.stopped = nil, nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-stopped
}

// RuntimeSnapshot is a point-in-time read of the headline runtime
// gauges, for heartbeat lines.
type RuntimeSnapshot struct {
	HeapBytes  int64
	Goroutines int64
	GCCycles   int64
	GCPauseP99 float64
}

// Snapshot reads the current gauge values (it does not Collect).
// Nil-safe.
func (c *RuntimeCollector) Snapshot() RuntimeSnapshot {
	if c == nil {
		return RuntimeSnapshot{}
	}
	return RuntimeSnapshot{
		HeapBytes:  c.heapBytes.Value(),
		Goroutines: c.goroutines.Value(),
		GCCycles:   c.gcCycles.Value(),
		GCPauseP99: c.gcPause["0.99"].Value(),
	}
}
