package sim

import (
	"math/bits"
	"sync"
	"time"

	"bfbp/internal/obs"
)

// Engine telemetry: metric names and the sampled harness probe. All of
// it is opt-in — an Engine with nil Metrics runs the uninstrumented hot
// loop (the overhead guard in metrics_test.go pins this) — and
// nil-safe, so instrumented code never branches on "telemetry
// enabled?" at observation sites.

// Throughput buckets: 100K to ~400M branches/sec.
func rateBuckets() []float64 { return obs.ExpBuckets(1e5, 2, 12) }

// EngineMetrics is the engine's metric set, registered under the
// bfbp_engine_* / bfbp_harness_* names documented in DESIGN.md. Attach
// one to Engine.Metrics: it then subscribes to every Run's event
// stream, and its Probe samples the harness hot loop. A nil
// *EngineMetrics disables collection.
type EngineMetrics struct {
	workers      *obs.Gauge
	queueDepth   *obs.Gauge
	busyWorkers  *obs.Gauge
	runs         *obs.CounterFamily
	runsOK       *obs.Counter
	runsFailed   *obs.Counter
	branches     *obs.Counter
	mispredicts  *obs.CounterFamily
	instructions *obs.CounterFamily
	runSeconds   *obs.QuantileFamily
	branchRate   *obs.Histogram
	predictLat   *obs.QuantileHistogram
	updateLat    *obs.QuantileHistogram
	// Provenance families, populated only by explained runs
	// (Options.Explain + an Explainer predictor).
	mispredictCauses *obs.CounterFamily
	confMargin       *obs.HistogramFamily
	// State-probe families, populated only by probed runs
	// (Options.ProbeStateEvery + a StateProbe predictor).
	tableOccupancy *obs.FloatGaugeFamily
	tagConflicts   *obs.CounterFamily
	weightSat      *obs.FloatGaugeFamily

	// lastEvict holds each running cell's cumulative evictions per bank
	// label, so tagConflicts advances by the delta between samples.
	mu        sync.Mutex
	lastEvict map[cellKey]map[string]uint64
}

// cellKey identifies one running matrix cell. The engine stamps cell
// (the job's 1-based index in its Run) on TableStats, RunFinish and
// RunError, so two jobs with the same trace and predictor names keep
// separate baselines. cell is not journaled: events replayed from a
// journal carry 0 and are told apart by their names alone.
type cellKey struct {
	trace, predictor string
	cell             int
}

// NewEngineMetrics registers the engine metric set on reg.
func NewEngineMetrics(reg *obs.Registry) *EngineMetrics {
	m := &EngineMetrics{
		workers:     reg.Gauge("bfbp_engine_workers", "worker goroutines in the current suite run"),
		queueDepth:  reg.Gauge("bfbp_engine_queue_depth", "matrix cells not yet picked up by a worker"),
		busyWorkers: reg.Gauge("bfbp_engine_busy_workers", "workers currently simulating a cell"),
		runs:        reg.CounterFamily("bfbp_engine_runs_total", "completed matrix cells by status", "status"),
		branches:    reg.Counter("bfbp_engine_branches_total", "dynamic branches simulated across all runs"),
		mispredicts: reg.CounterFamily("bfbp_engine_mispredicts_total",
			"mispredicted branches by predictor", "predictor"),
		instructions: reg.CounterFamily("bfbp_engine_instructions_total",
			"instructions covered by completed runs, by predictor", "predictor"),
		runSeconds: reg.QuantileFamily("bfbp_engine_run_seconds",
			"per-cell wall time by predictor (summary quantiles)", "predictor"),
		branchRate: reg.Histogram("bfbp_engine_run_branches_per_second",
			"per-cell simulation throughput", rateBuckets()),
		predictLat: reg.Quantile("bfbp_harness_predict_seconds",
			"sampled Predict latency (summary quantiles)"),
		updateLat: reg.Quantile("bfbp_harness_update_seconds",
			"sampled Update latency (summary quantiles)"),
		mispredictCauses: reg.CounterFamily("bfbp_mispredict_total",
			"explained mispredictions by taxonomy cause", "predictor", "cause"),
		confMargin: reg.HistogramFamily("bfbp_confidence_margin",
			"sampled confidence minus threshold of explained predictions",
			MarginBounds(), "predictor"),
		tableOccupancy: reg.FloatGaugeFamily("bfbp_table_occupancy",
			"live fraction of each predictor bank (StateProbe samples)", "predictor", "bank"),
		tagConflicts: reg.CounterFamily("bfbp_tag_conflicts_total",
			"allocations that evicted a previously allocated entry, by tagged bank", "predictor", "bank"),
		weightSat: reg.FloatGaugeFamily("bfbp_weight_saturation",
			"fraction of weights pinned at a clamp bound, by weight array", "predictor", "bank"),
	}
	m.runsOK = m.runs.With("ok")
	m.runsFailed = m.runs.With("error")
	m.lastEvict = make(map[cellKey]map[string]uint64)
	return m
}

// Probe returns the sampled predict/update latency probe backed by
// these metrics (HarnessProbe's default period), for wiring into
// Options.Probe. Nil-safe.
func (m *EngineMetrics) Probe() *HarnessProbe {
	if m == nil {
		return nil
	}
	return &HarnessProbe{Predict: m.predictLat, Update: m.updateLat}
}

// observe folds one engine event into the metric set. Every family but
// the sampled harness latencies derives from events alone, so feeding
// a journal's events back through observe rebuilds the live scrape.
// Nil-safe.
func (m *EngineMetrics) observe(ev Event) {
	if m == nil {
		return
	}
	switch ev := ev.(type) {
	case SuiteStart:
		m.workers.Set(int64(ev.Workers))
		m.queueDepth.Set(int64(ev.Jobs))
		m.busyWorkers.Set(0)
	case SuiteFinish:
		// Cancelled suites drain jobs without running them; the live
		// gauges must not report phantom work after Run returns.
		m.workers.Set(0)
		m.queueDepth.Set(0)
		m.busyWorkers.Set(0)
	case RunStart:
		m.queueDepth.Dec()
		m.busyWorkers.Inc()
	case RunError:
		m.busyWorkers.Dec()
		m.runsFailed.Inc()
		m.forgetCell(cellKey{ev.Trace, ev.Predictor, ev.cell})
	case RunFinish:
		m.busyWorkers.Dec()
		m.runsOK.Inc()
		m.branches.Add(ev.Branches)
		m.mispredicts.With(ev.Predictor).Add(ev.Mispredicts)
		m.instructions.With(ev.Predictor).Add(ev.Instructions)
		s := time.Duration(ev.ElapsedNS).Seconds()
		m.runSeconds.With(ev.Predictor).Observe(s)
		if s > 0 {
			m.branchRate.Observe(ev.BranchesPerSec)
		}
		m.forgetCell(cellKey{ev.Trace, ev.Predictor, ev.cell})
	case ProvenanceEvent:
		for cause, n := range ev.Causes {
			m.mispredictCauses.With(ev.Predictor, cause).Add(n)
		}
		// Replay the run's margin buckets into the family histogram.
		// Bounds are shared (MarginBounds), so observing each bucket's
		// upper bound lands the count in the matching bucket; the
		// overflow bucket replays just past the last bound.
		h := m.confMargin.With(ev.Predictor)
		bounds := MarginBounds()
		for i, n := range ev.MarginCounts {
			if i < len(bounds) {
				h.ObserveN(bounds[i], n)
			} else {
				h.ObserveN(bounds[len(bounds)-1]+1, n)
			}
		}
	case TableStats:
		m.observeTableStats(ev)
	}
}

// observeTableStats folds one StateProbe sample into the state-probe
// families. Gauges take the sample's instantaneous values; evictions
// are cumulative per bank, so the conflict counter advances by the
// delta against the cell's previous sample.
func (m *EngineMetrics) observeTableStats(ts TableStats) {
	for _, w := range ts.Weights {
		m.weightSat.With(ts.Predictor, w.Name).Set(w.SaturationRate())
	}
	if len(ts.Banks) == 0 {
		return
	}
	key := cellKey{ts.Trace, ts.Predictor, ts.cell}
	m.mu.Lock()
	defer m.mu.Unlock()
	last := m.lastEvict[key]
	if last == nil {
		last = make(map[string]uint64, len(ts.Banks))
		m.lastEvict[key] = last
	}
	for _, b := range ts.Banks {
		label := b.Label()
		m.tableOccupancy.With(ts.Predictor, label).Set(b.Occupancy())
		if d := b.Evictions - last[label]; d > 0 {
			m.tagConflicts.With(ts.Predictor, label).Add(d)
			last[label] = b.Evictions
		}
	}
}

// forgetCell drops a finished cell's eviction baselines.
func (m *EngineMetrics) forgetCell(key cellKey) {
	m.mu.Lock()
	delete(m.lastEvict, key)
	m.mu.Unlock()
}

// EngineSnapshot is a point-in-time read of the engine gauges and
// counters, for heartbeat lines and tests.
type EngineSnapshot struct {
	Workers, Queued, Busy int64
	RunsOK, RunsFailed    uint64
	Branches              uint64
	PredictSamples        uint64
	UpdateSamples         uint64
}

// Snapshot reads the current metric values. Nil-safe.
func (m *EngineMetrics) Snapshot() EngineSnapshot {
	if m == nil {
		return EngineSnapshot{}
	}
	return EngineSnapshot{
		Workers:        m.workers.Value(),
		Queued:         m.queueDepth.Value(),
		Busy:           m.busyWorkers.Value(),
		RunsOK:         m.runsOK.Value(),
		RunsFailed:     m.runsFailed.Value(),
		Branches:       m.branches.Value(),
		PredictSamples: m.predictLat.Count(),
		UpdateSamples:  m.updateLat.Count(),
	}
}

// HarnessProbe samples predict/update latencies inside RunContext's hot
// loop. Only every Every'th branch is timed (Every rounds up to a power
// of two; 0 means 64), so the cost is two time.Now calls per period
// rather than per branch.
type HarnessProbe struct {
	// Every is the sampling period in branches.
	Every uint64
	// Predict and Update receive the sampled latencies in seconds.
	Predict *obs.QuantileHistogram
	Update  *obs.QuantileHistogram
}

// sampleMask returns Every-1 with Every rounded up to a power of two,
// so the hot loop decides "sample this branch?" with one AND. Every
// above 2^63 rounds up to 2^64: the mask is all ones.
func (pr *HarnessProbe) sampleMask() uint64 {
	e := pr.Every
	if e == 0 {
		e = 64
	}
	return 1<<bits.Len64(e-1) - 1
}
