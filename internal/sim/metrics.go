package sim

import (
	"math/bits"
	"sort"
	"sync"
	"time"

	"bfbp/internal/obs"
)

// Engine telemetry: metric names, the journal event set, and the
// sampled harness probe. All of it is opt-in — an Engine with nil
// Metrics/Journal runs the exact PR-1 path (the overhead benchmark in
// metrics_test.go pins this) — and nil-safe, so instrumented code never
// branches on "telemetry enabled?" at observation sites.

// Throughput buckets: 100K to ~400M branches/sec.
func rateBuckets() []float64 { return obs.ExpBuckets(1e5, 2, 12) }

// EngineMetrics is the engine's metric set, registered under the
// bfbp_engine_* / bfbp_harness_* names documented in DESIGN.md. Attach
// one to Engine.Metrics; every Run then updates it. A nil
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

	// SampleEvery is the harness probe period in branches (rounded up
	// to a power of two; 0 means 64). Predict/update latencies are
	// sampled, not exhaustive, to bound instrumentation overhead.
	SampleEvery uint64
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
	return m
}

// Probe returns the sampled predict/update latency probe backed by
// these metrics, for wiring into Options.Probe. Nil-safe.
func (m *EngineMetrics) Probe() *HarnessProbe {
	if m == nil {
		return nil
	}
	return &HarnessProbe{Every: m.SampleEvery, Predict: m.predictLat, Update: m.updateLat}
}

func (m *EngineMetrics) suiteStart(jobs, workers int) {
	if m == nil {
		return
	}
	m.workers.Set(int64(workers))
	m.queueDepth.Set(int64(jobs))
	m.busyWorkers.Set(0)
}

func (m *EngineMetrics) suiteFinish() {
	if m == nil {
		return
	}
	// Cancelled suites drain jobs without running them; the live gauges
	// must not report phantom work after Run returns.
	m.workers.Set(0)
	m.queueDepth.Set(0)
	m.busyWorkers.Set(0)
}

func (m *EngineMetrics) runStart() {
	if m == nil {
		return
	}
	m.queueDepth.Dec()
	m.busyWorkers.Inc()
}

func (m *EngineMetrics) runFinish(predictor string, st Stats, elapsed time.Duration, err error) {
	if m == nil {
		return
	}
	m.busyWorkers.Dec()
	if err != nil {
		m.runsFailed.Inc()
		return
	}
	m.runsOK.Inc()
	m.branches.Add(st.Branches)
	m.mispredicts.With(predictor).Add(st.Mispredicts)
	m.instructions.With(predictor).Add(st.Instructions)
	m.runSeconds.With(predictor).Observe(elapsed.Seconds())
	if s := elapsed.Seconds(); s > 0 {
		m.branchRate.Observe(float64(st.Branches) / s)
	}
	if pv := st.Provenance; pv != nil {
		for cause, n := range pv.Causes {
			m.mispredictCauses.With(predictor, cause).Add(n)
		}
		// Replay the run's margin buckets into the family histogram.
		// Bounds are shared (MarginBounds), so observing each bucket's
		// upper bound lands the count in the matching bucket; the
		// overflow bucket replays just past the last bound.
		h := m.confMargin.With(predictor)
		bounds := MarginBounds()
		for i, n := range pv.MarginCounts {
			if i < len(bounds) {
				h.ObserveN(bounds[i], n)
			} else {
				h.ObserveN(bounds[len(bounds)-1]+1, n)
			}
		}
	}
}

// observeTableStats folds one StateProbe sample into the state-probe
// metric families. Gauges are set to the sample's instantaneous values;
// evictions are cumulative per bank, so the conflict counter advances
// by the delta against lastEvict (per-cell state owned by the caller).
// Nil-safe.
func (m *EngineMetrics) observeTableStats(predictor string, ts TableStats, lastEvict map[string]uint64) {
	if m == nil {
		return
	}
	for _, b := range ts.Banks {
		label := b.Label()
		m.tableOccupancy.With(predictor, label).Set(b.Occupancy())
		if d := b.Evictions - lastEvict[label]; d > 0 {
			m.tagConflicts.With(predictor, label).Add(d)
			lastEvict[label] = b.Evictions
		}
	}
	for _, w := range ts.Weights {
		m.weightSat.With(predictor, w.Name).Set(w.SaturationRate())
	}
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

// The bfbp.journal.v1 event payloads. Field names are frozen by the
// schema documented in DESIGN.md §Observability; wall-clock-derived
// fields (elapsed_ns, branches_per_sec — plus the "wall" stamp the
// journal itself adds) are the only nondeterministic content.

type journalSuiteStart struct {
	Jobs       int      `json:"jobs"`
	Workers    int      `json:"workers"`
	Predictors []string `json:"predictors"`
	Traces     []string `json:"traces"`
	Span       uint64   `json:"span,omitempty"`
}

type journalSuiteFinish struct {
	Runs      int    `json:"runs"`
	Failed    int    `json:"failed"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Span      uint64 `json:"span,omitempty"`
}

type journalRunStart struct {
	Trace     string `json:"trace"`
	Predictor string `json:"predictor"`
	Worker    int    `json:"worker"`
	Span      uint64 `json:"span,omitempty"`
}

type journalRunFinish struct {
	Trace          string  `json:"trace"`
	Predictor      string  `json:"predictor"`
	Worker         int     `json:"worker"`
	Branches       uint64  `json:"branches"`
	Instructions   uint64  `json:"instructions"`
	Mispredicts    uint64  `json:"mispredicts"`
	MPKI           float64 `json:"mpki"`
	Accuracy       float64 `json:"accuracy"`
	ElapsedNS      int64   `json:"elapsed_ns"`
	BranchesPerSec float64 `json:"branches_per_sec"`
	Span           uint64  `json:"span,omitempty"`
}

type journalRunError struct {
	Trace     string `json:"trace"`
	Predictor string `json:"predictor"`
	Worker    int    `json:"worker"`
	Error     string `json:"error"`
	Span      uint64 `json:"span,omitempty"`
}

type journalWindow struct {
	Trace        string  `json:"trace"`
	Predictor    string  `json:"predictor"`
	Index        int     `json:"index"`
	Branches     uint64  `json:"branches"`
	Mispredicts  uint64  `json:"mispredicts"`
	Instructions uint64  `json:"instructions"`
	MPKI         float64 `json:"mpki"`
	Span         uint64  `json:"span,omitempty"`
}

type journalStorageComponent struct {
	Name string `json:"name"`
	Bits int    `json:"bits"`
}

type journalStorage struct {
	Predictor  string                    `json:"predictor"`
	TotalBits  int                       `json:"total_bits"`
	Components []journalStorageComponent `json:"components"`
	Span       uint64                    `json:"span,omitempty"`
}

type journalWorkerState struct {
	Worker int    `json:"worker"`
	State  string `json:"state"`
	Span   uint64 `json:"span,omitempty"`
}

type journalProvenance struct {
	Trace         string            `json:"trace"`
	Predictor     string            `json:"predictor"`
	Explained     uint64            `json:"explained"`
	Causes        map[string]uint64 `json:"causes"`
	MarginSamples uint64            `json:"margin_samples"`
	MarginCounts  []uint64          `json:"margin_counts"`
	Span          uint64            `json:"span,omitempty"`
}

type journalComponentEntry struct {
	Name        string `json:"name"`
	Predictions uint64 `json:"predictions"`
	Mispredicts uint64 `json:"mispredicts"`
}

type journalComponentAttribution struct {
	Trace      string                  `json:"trace"`
	Predictor  string                  `json:"predictor"`
	Components []journalComponentEntry `json:"components"`
	BankHits   []uint64                `json:"bank_hits,omitempty"`
	BankMisses []uint64                `json:"bank_misses,omitempty"`
	Span       uint64                  `json:"span,omitempty"`
}

// JournalEventKinds lists every bfbp.journal.v1 event kind the engine
// and harness can emit. The doc-drift test asserts this set matches
// both the Emit call sites and the DESIGN.md schema table.
func JournalEventKinds() []string {
	return []string{
		"suite_start", "suite_finish",
		"run_start", "run_finish", "run_error",
		"window", "storage", "worker_state",
		"provenance", "component_attribution", "checkpoint",
		"drift", "tablestats",
	}
}

// journalWindowClose emits the window event for one closed window of a
// cell, live, while the run is still in flight. span is the cell's run
// span. Nil-safe on j.
func journalWindowClose(j *obs.Journal, ev WindowEvent, span uint64) {
	if j == nil {
		return
	}
	j.Emit("window", journalWindow{
		Trace:        ev.Trace,
		Predictor:    ev.Predictor,
		Index:        ev.Index,
		Branches:     ev.Stat.Branches,
		Mispredicts:  ev.Stat.Mispredicts,
		Instructions: ev.Stat.Instructions,
		MPKI:         ev.Stat.MPKI(),
		Span:         span,
	})
}

// journalRun emits the per-run event group for one completed cell:
// run_finish, the decision-trace provenance and component attribution
// of an explained run, and (once per predictor name per suite) the
// storage budget. Window events are not part of the group: the engine
// emits each one live as its window closes. Every event carries the
// cell's execution span ID (0 and omitted when tracing is off) so
// journal records join to their bfbp.trace.v1 timeline slices.
func journalRun(j *obs.Journal, res RunResult, worker int, span uint64, storageSeen *sync.Map) {
	if j == nil {
		return
	}
	st := res.Stats
	var rate float64
	if s := res.Elapsed.Seconds(); s > 0 {
		rate = float64(st.Branches) / s
	}
	j.Emit("run_finish", journalRunFinish{
		Trace:          res.Trace,
		Predictor:      res.Predictor,
		Worker:         worker,
		Branches:       st.Branches,
		Instructions:   st.Instructions,
		Mispredicts:    st.Mispredicts,
		MPKI:           st.MPKI(),
		Accuracy:       st.Accuracy(),
		ElapsedNS:      res.Elapsed.Nanoseconds(),
		BranchesPerSec: rate,
		Span:           span,
	})
	if pv := st.Provenance; pv != nil {
		j.Emit("provenance", journalProvenance{
			Trace:         res.Trace,
			Predictor:     res.Predictor,
			Explained:     pv.Explained,
			Causes:        pv.Causes,
			MarginSamples: pv.MarginSamples,
			MarginCounts:  pv.MarginCounts,
			Span:          span,
		})
		attr := journalComponentAttribution{
			Trace:      res.Trace,
			Predictor:  res.Predictor,
			BankHits:   pv.BankHits,
			BankMisses: pv.BankMisses,
			Span:       span,
		}
		names := make([]string, 0, len(pv.Components))
		for name := range pv.Components {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			cs := pv.Components[name]
			attr.Components = append(attr.Components, journalComponentEntry{
				Name: name, Predictions: cs.Predictions, Mispredicts: cs.Mispredicts,
			})
		}
		j.Emit("component_attribution", attr)
	}
	if sa, ok := res.Instance.(StorageAccounter); ok {
		if _, dup := storageSeen.LoadOrStore(res.Predictor, true); !dup {
			b := sa.Storage()
			ev := journalStorage{Predictor: res.Predictor, TotalBits: b.TotalBits(), Span: span}
			for _, c := range b.Components {
				ev.Components = append(ev.Components, journalStorageComponent{Name: c.Name, Bits: c.Bits})
			}
			j.Emit("storage", ev)
		}
	}
}

// suiteNames extracts the distinct predictor and trace names of a job
// list, in first-appearance order, for the suite_start event.
func suiteNames(jobs []Job) (preds, traces []string) {
	seenP := map[string]bool{}
	seenT := map[string]bool{}
	for _, job := range jobs {
		if p := job.Predictor.Name; !seenP[p] {
			seenP[p] = true
			preds = append(preds, p)
		}
		if t := job.Source.Name(); !seenT[t] {
			seenT[t] = true
			traces = append(traces, t)
		}
	}
	return preds, traces
}
