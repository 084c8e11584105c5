// Package bfbp is a from-scratch Go reproduction of "Bias-Free Branch
// Predictor" (Gope & Lipasti, MICRO 2014): the BF-Neural and BF-TAGE
// predictors, every baseline the paper compares against (perceptron,
// OH-SNAP, TAGE/ISL-TAGE), a CBP-style trace-driven simulation harness,
// and a synthetic 40-trace workload suite standing in for the CBP-4
// traces.
//
// Quick start:
//
//	spec, _ := bfbp.TraceByName("SPEC03")
//	tr := spec.GenerateN(200_000)
//	p := bfbp.NewBFNeural(bfbp.BFNeural64KB())
//	stats, _ := bfbp.Run(p, tr.Stream(), bfbp.Options{Warmup: 20_000})
//	fmt.Printf("MPKI = %.3f\n", stats.MPKI())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every figure and table.
package bfbp

import (
	"context"
	"errors"
	"io"
	"net/http"

	"bfbp/internal/bst"
	"bfbp/internal/core/bfgehl"
	"bfbp/internal/core/bfneural"
	"bfbp/internal/core/bftage"
	"bfbp/internal/obs"
	"bfbp/internal/predictor/bimodal"
	"bfbp/internal/predictor/filter"
	"bfbp/internal/predictor/gehl"
	"bfbp/internal/predictor/gshare"
	"bfbp/internal/predictor/local"
	"bfbp/internal/predictor/ohsnap"
	"bfbp/internal/predictor/perceptron"
	"bfbp/internal/predictor/strided"
	"bfbp/internal/predictor/tage"
	"bfbp/internal/predictor/tournament"
	"bfbp/internal/predictor/yags"
	"bfbp/internal/sim"
	"bfbp/internal/state"
	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

// Core simulation types, re-exported from the harness.
type (
	// Predictor is the interface every branch predictor implements.
	Predictor = sim.Predictor
	// StorageAccounter reports a predictor's hardware budget.
	StorageAccounter = sim.StorageAccounter
	// Stats holds accuracy results of a run.
	Stats = sim.Stats
	// WindowStat is one fixed-branch-window slice of a run's MPKI series.
	WindowStat = sim.WindowStat
	// Options configures a run (warmup, update delay, per-PC stats,
	// windowed metrics).
	Options = sim.Options
	// Result pairs a predictor name with its stats.
	Result = sim.Result
	// Breakdown is an itemised storage budget.
	Breakdown = sim.Breakdown
)

// Suite-engine types, re-exported from the harness.
type (
	// Engine evaluates (predictor × trace) matrices on a worker pool with
	// deterministic result ordering and context cancellation.
	Engine = sim.Engine
	// Job is one cell of an evaluation matrix.
	Job = sim.Job
	// PredictorSpec names a predictor and constructs fresh instances.
	PredictorSpec = sim.PredictorSpec
	// TraceSource names a trace and opens fresh readers over it.
	TraceSource = sim.TraceSource
	// FuncSource adapts a label and open function to TraceSource.
	FuncSource = sim.FuncSource
	// SpecSource is the streaming TraceSource of a synthetic trace spec;
	// build one with TraceSpec.Source(n).
	SpecSource = workload.SpecSource
	// TraceSliceSource is the in-memory TraceSource of a materialised
	// trace; build one with Trace.Source(name).
	TraceSliceSource = trace.NamedSlice
	// RunResult is one completed engine cell.
	RunResult = sim.RunResult
	// ProgressEvent reports one completed engine cell.
	ProgressEvent = sim.ProgressEvent
)

// Observability types, re-exported from internal/obs and the harness.
// See DESIGN.md §Observability for the metric names and the
// bfbp.journal.v1 event schema.
type (
	// MetricsRegistry holds named metrics with Prometheus-text and
	// expvar-style JSON export (WritePrometheus / WriteJSON).
	MetricsRegistry = obs.Registry
	// MetricsCounter is an atomic monotonic counter.
	MetricsCounter = obs.Counter
	// MetricsGauge is an atomic instantaneous value.
	MetricsGauge = obs.Gauge
	// MetricsHistogram is a fixed-bucket lock-free histogram.
	MetricsHistogram = obs.Histogram
	// MetricsQuantile is an HDR-style log-linear quantile histogram
	// (p50/p90/p99/p999 within obs.QuantileRelError relative error),
	// exported as a Prometheus summary.
	MetricsQuantile = obs.QuantileHistogram
	// MetricsFloatGauge is an atomic float64 instantaneous value.
	MetricsFloatGauge = obs.FloatGauge
	// RuntimeCollector bridges runtime/metrics (heap, goroutines, GC
	// pauses, scheduler latency) into a registry as bfbp_runtime_*.
	RuntimeCollector = obs.RuntimeCollector
	// Journal writes bfbp.journal.v1 JSONL run events.
	Journal = obs.Journal
	// Tracer records hierarchical execution spans as a bfbp.trace.v1
	// timeline (Chrome trace-event JSON, loadable in Perfetto); assign
	// to Engine.Tracer.
	Tracer = obs.Tracer
	// Span is one timed slice of a Tracer's timeline.
	Span = obs.Span
	// DriftDetector is a streaming change-point detector (EWMA baseline
	// + Page-Hinkley alarm) over one metric series.
	DriftDetector = obs.DriftDetector
	// DriftConfig parameterises a DriftDetector; the zero value selects
	// sane defaults.
	DriftConfig = obs.DriftConfig
	// DriftEvent describes one change-point alarm.
	DriftEvent = obs.DriftEvent
	// DriftState is a point-in-time snapshot of a DriftDetector.
	DriftState = obs.DriftState
	// FlightRecorder is a bounded ring of recent journal lines; tee a
	// Journal's writer through it and Snapshot on incidents.
	FlightRecorder = obs.FlightRecorder
	// FlightDump is one bfbp.flight.v1 incident snapshot.
	FlightDump = obs.FlightDump
	// Event is one fact of the engine's event stream (a bfbp.journal.v1
	// payload), delivered to Options.OnEvent / Engine.OnEvent.
	Event = sim.Event
	// WindowEvent is the event for one closed metrics window, delivered
	// live as a run progresses.
	WindowEvent = sim.WindowEvent
	// EngineMetrics is the engine metric set; assign to Engine.Metrics
	// and it subscribes to every Run's event stream.
	EngineMetrics = sim.EngineMetrics
	// EngineSnapshot is a point-in-time read of the engine metrics.
	EngineSnapshot = sim.EngineSnapshot
	// HarnessProbe samples predict/update latencies in the harness hot
	// loop; assign to Options.Probe.
	HarnessProbe = sim.HarnessProbe
)

// Decision-provenance types, re-exported from the harness. Enable with
// Options.Explain on predictors implementing Explainer; the harness
// then fills Stats.Provenance with the misprediction taxonomy and
// component/bank attribution.
type (
	// Explainer describes a predictor's most recent prediction.
	Explainer = sim.Explainer
	// Provenance describes how one prediction was made.
	Provenance = sim.Provenance
	// WeightContrib is one signed adder-tree contribution.
	WeightContrib = sim.WeightContrib
	// ProvenanceStats aggregates a run's decision trace.
	ProvenanceStats = sim.ProvenanceStats
	// ComponentStat counts predictions attributed to one component.
	ComponentStat = sim.ComponentStat
)

// State-snapshot types (bfbp.state.v1), re-exported from the harness
// and internal/state. See DESIGN.md §State snapshots for the format.
type (
	// Snapshotter is the optional interface for predictors whose state
	// serialises to the bfbp.state.v1 format and restores bit-exactly.
	// Every registry predictor implements it.
	Snapshotter = sim.Snapshotter
	// CapabilitySet holds a predictor's optional interfaces, each nil
	// when unimplemented.
	CapabilitySet = sim.CapabilitySet
	// SnapshotHeader is the identity header of a bfbp.state.v1 file:
	// predictor name, config hash, and section directory.
	SnapshotHeader = state.Header
)

// Predictor-internals introspection types, re-exported from the
// harness. Enable periodic sampling with Options.ProbeStateEvery on
// predictors implementing StateProbe; every registry predictor does.
type (
	// StateProbe is the optional interface for predictors that expose
	// internal table statistics for observation-only sampling.
	StateProbe = sim.StateProbe
	// TableStats is one StateProbe sample: per-bank occupancy, weight
	// saturation, and recency-structure fill.
	TableStats = sim.TableStats
	// BankStats describes one table bank (occupancy, conflicts,
	// useful-bit and counter saturation, history length and reach,
	// provider hits).
	BankStats = sim.BankStats
	// WeightStats describes one weight array (live weights, L1 norm,
	// clamp saturation).
	WeightStats = sim.WeightStats
	// RecencyStats describes one recency-stack segment's fill.
	RecencyStats = sim.RecencyStats
)

// Typed snapshot errors, matchable with errors.Is on Snapshotter.LoadState
// failures.
var (
	// ErrSnapshotBadMagic: the reader is not a bfbp.state snapshot.
	ErrSnapshotBadMagic = state.ErrBadMagic
	// ErrSnapshotVersion: the snapshot version is unsupported.
	ErrSnapshotVersion = state.ErrVersion
	// ErrSnapshotTruncated: the snapshot ended mid-structure.
	ErrSnapshotTruncated = state.ErrTruncated
	// ErrSnapshotCorrupt: a decoded value is structurally impossible.
	ErrSnapshotCorrupt = state.ErrCorrupt
	// ErrSnapshotPredictor: the snapshot names a different predictor.
	ErrSnapshotPredictor = state.ErrPredictorMismatch
	// ErrSnapshotConfig: the snapshot's config hash does not match the
	// loading instance's configuration.
	ErrSnapshotConfig = state.ErrConfigMismatch
)

// Capabilities probes p for every optional interface, replacing
// scattered type asserts: branch on the returned struct's fields.
func Capabilities(p Predictor) CapabilitySet { return sim.Capabilities(p) }

// ReadSnapshotHeader reads just the identity header of a bfbp.state.v1
// stream — enough to tell which predictor a checkpoint file belongs to
// without decoding its payload.
func ReadSnapshotHeader(r io.Reader) (SnapshotHeader, error) { return state.ReadHeader(r) }

// MispredictCauses lists the misprediction taxonomy in classification
// order.
func MispredictCauses() []string { return sim.Causes() }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEngineMetrics registers the bfbp_engine_* / bfbp_harness_* metric
// set on reg; assign the result to Engine.Metrics.
func NewEngineMetrics(reg *MetricsRegistry) *EngineMetrics { return sim.NewEngineMetrics(reg) }

// NewJournal returns a run journal writing bfbp.journal.v1 JSONL
// events to w; assign it to Engine.Journal and Close it when done.
func NewJournal(w io.Writer) *Journal { return obs.NewJournal(w) }

// NewTracer returns an execution-span tracer streaming bfbp.trace.v1
// JSON to w; assign it to Engine.Tracer and Close it when done to seal
// the file. Journal events carry the matching span IDs in their "span"
// field.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// NewDriftDetector returns a streaming change-point detector; feed it
// one value per window with Observe.
func NewDriftDetector(cfg DriftConfig) *DriftDetector { return obs.NewDriftDetector(cfg) }

// NewFlightRecorder returns a flight-recorder ring retaining the last
// depth journal lines (0 selects the default depth); write journal
// output through it (io.MultiWriter) and Snapshot on incidents.
func NewFlightRecorder(depth int) *FlightRecorder { return obs.NewFlightRecorder(depth) }

// ReadFlightDump parses a bfbp.flight.v1 flight-recorder dump.
func ReadFlightDump(r io.Reader) (FlightDump, error) { return obs.ReadFlightDump(r) }

// FlightSchema is the schema tag of flight-recorder dumps.
const FlightSchema = obs.FlightSchema

// ConcatTraces returns a reader that yields each reader's records in
// sequence — the splice primitive behind bfsim -endurance.
func ConcatTraces(readers ...TraceReader) TraceReader { return trace.Concat(readers...) }

// MetricsQuantileRelError is the worst-case relative error of a
// MetricsQuantile estimate.
const MetricsQuantileRelError = obs.QuantileRelError

// NewRuntimeCollector registers the bfbp_runtime_* gauge set on reg;
// call Collect before a scrape, or Start a ticker that collects on
// every tick.
func NewRuntimeCollector(reg *MetricsRegistry) *RuntimeCollector { return obs.NewRuntimeCollector(reg) }

// MetricsMux returns an http.ServeMux serving /metrics (Prometheus
// text), /debug/vars (expvar-style JSON), and /debug/pprof/* for the
// registry — the handler behind the commands' -metrics-addr flag.
func MetricsMux(reg *MetricsRegistry) *http.ServeMux { return obs.NewMux(reg) }

// Trace types.
type (
	// Record is one committed conditional branch.
	Record = trace.Record
	// TraceReader yields records in commit order.
	TraceReader = trace.Reader
	// Trace is an in-memory branch trace.
	Trace = trace.Slice
)

// Workload types.
type (
	// TraceSpec describes one synthetic benchmark trace.
	TraceSpec = workload.Spec
	// Family is a workload category (SPEC, FP, INT, MM, SERV).
	Family = workload.Family
	// BiasStats summarises a trace's biased-branch population (Fig. 2).
	BiasStats = workload.BiasStats
)

// Run drives a predictor over a trace and returns accuracy statistics.
func Run(p Predictor, r TraceReader, opt Options) (Stats, error) {
	return sim.Run(p, r, opt)
}

// RunContext is Run with context cancellation: it aborts with ctx's
// error as soon as ctx is cancelled.
func RunContext(ctx context.Context, p Predictor, r TraceReader, opt Options) (Stats, error) {
	return sim.RunContext(ctx, p, r, opt)
}

// RunAllSource evaluates several predictors over identical copies of a
// trace source, opening a fresh reader per predictor.
func RunAllSource(preds []Predictor, src TraceSource, opt Options) ([]Result, error) {
	return sim.RunAll(preds, src, opt)
}

// Matrix builds the cross product of sources × predictors as engine
// jobs, in source-major order.
func Matrix(sources []TraceSource, preds []PredictorSpec, opt Options) []Job {
	return sim.Matrix(sources, preds, opt)
}

// WriteCSV emits engine results as CSV rows. Output is byte-identical
// for a given matrix regardless of the engine's worker count.
func WriteCSV(w io.Writer, results []RunResult) error { return sim.WriteCSV(w, results) }

// WriteJSON emits engine results, including windowed MPKI series, as a
// JSON document (schema "bfbp.suite.v1").
func WriteJSON(w io.Writer, results []RunResult) error { return sim.WriteJSON(w, results) }

// Traces returns the 40-trace benchmark suite in reporting order.
func Traces() []TraceSpec { return workload.Traces() }

// TraceByName returns the named trace spec (e.g. "SPEC03", "SERV1").
func TraceByName(name string) (TraceSpec, bool) { return workload.ByName(name) }

// TraceNames returns the 40 trace names in reporting order.
func TraceNames() []string { return workload.Names() }

// ProfileBias classifies a trace's branches as completely biased or not.
func ProfileBias(r TraceReader) (BiasStats, error) { return workload.ProfileBias(r) }

// Predictor configurations.
type (
	// PerceptronConfig parameterises the hashed perceptron baseline.
	PerceptronConfig = perceptron.Config
	// OHSNAPConfig parameterises the scaled neural baseline.
	OHSNAPConfig = ohsnap.Config
	// TAGEConfig parameterises TAGE / ISL-TAGE.
	TAGEConfig = tage.Config
	// BFNeuralConfig parameterises the BF-Neural predictor.
	BFNeuralConfig = bfneural.Config
	// BFNeuralMode selects the Fig. 9 ablation level.
	BFNeuralMode = bfneural.Mode
	// BFTAGEConfig parameterises the BF-TAGE predictor.
	BFTAGEConfig = bftage.Config
)

// BF-Neural ablation modes (Fig. 9).
const (
	// BFModeFilterWeights gates by the BST but keeps the history
	// unfiltered.
	BFModeFilterWeights = bfneural.ModeFilterWeights
	// BFModeBiasFreeGHR filters the history without a recency stack.
	BFModeBiasFreeGHR = bfneural.ModeBiasFreeGHR
	// BFModeFull is the complete BF-Neural design.
	BFModeFull = bfneural.ModeFull
)

// NewBimodal returns a PC-indexed 2-bit bimodal predictor.
func NewBimodal(entries int) Predictor { return bimodal.New(entries, 2) }

// NewGShare returns a gshare predictor.
func NewGShare(entries, histBits int) Predictor { return gshare.New(entries, histBits) }

// NewLocal returns a two-level local-history predictor.
func NewLocal(histEntries, histBits, phtEntries int) Predictor {
	return local.New(histEntries, histBits, phtEntries)
}

// NewPerceptron returns a hashed perceptron predictor.
func NewPerceptron(cfg PerceptronConfig) Predictor { return perceptron.New(cfg) }

// Perceptron64KB is the paper's Fig. 9 conventional-perceptron baseline:
// history length 72 in a 64KB budget, no folded-history indexing.
func Perceptron64KB() PerceptronConfig { return perceptron.Default64KB() }

// NewOHSNAP returns an OH-SNAP-style scaled neural predictor.
func NewOHSNAP(cfg OHSNAPConfig) Predictor { return ohsnap.New(cfg) }

// OHSNAP64KB is the ~64KB OH-SNAP configuration used in Fig. 8.
func OHSNAP64KB() OHSNAPConfig { return ohsnap.Default64KB() }

// NewTAGE returns a TAGE/ISL-TAGE predictor.
func NewTAGE(cfg TAGEConfig) *tage.Predictor { return tage.New(cfg) }

// ISLTAGE returns the full ISL-TAGE configuration with n tagged tables
// (loop predictor + statistical corrector + IUM), as in Fig. 10.
func ISLTAGE(n int) TAGEConfig { return tage.Conventional(n) }

// TAGEBare returns the TAGE-with-loop-predictor configuration of Fig. 8
// (no SC, no IUM).
func TAGEBare(n int) TAGEConfig { return tage.ConventionalBare(n) }

// NewBFNeural returns the paper's BF-Neural predictor.
func NewBFNeural(cfg BFNeuralConfig) *bfneural.Predictor { return bfneural.New(cfg) }

// BFNeural64KB is the §VI-B 64KB BF-Neural configuration.
func BFNeural64KB() BFNeuralConfig { return bfneural.Default64KB() }

// BFNeural32KB is the §VI-B 32KB BF-Neural configuration.
func BFNeural32KB() BFNeuralConfig { return bfneural.Default32KB() }

// BFNeuralAblation returns the Fig. 9 configuration for a mode.
func BFNeuralAblation(mode BFNeuralMode) BFNeuralConfig { return bfneural.Ablation(mode) }

// BFNeuralAhead is the §VIII future-work ahead-pipelined configuration:
// weight rows indexed from history alone, with the PC arriving late.
func BFNeuralAhead() BFNeuralConfig { return bfneural.AheadPipelined() }

// NewBFTAGE returns the paper's BF-TAGE predictor.
func NewBFTAGE(cfg BFTAGEConfig) *bftage.Predictor { return bftage.New(cfg) }

// BFISLTAGE returns the BF-ISL-TAGE configuration with n tagged tables
// (SC and IUM inherited from ISL-TAGE), as in Fig. 10.
func BFISLTAGE(n int) BFTAGEConfig { return bftage.Conventional(n) }

// BFTAGEBare drops the SC/IUM components.
func BFTAGEBare(n int) BFTAGEConfig { return bftage.ConventionalBare(n) }

// BFGEHLConfig parameterises the BF-GEHL extension predictor (a GEHL
// indexed by the bias-free global history register — beyond the paper's
// evaluated designs, see internal/core/bfgehl).
type BFGEHLConfig = bfgehl.Config

// NewBFGEHL returns the BF-GEHL extension predictor.
func NewBFGEHL(cfg BFGEHLConfig) Predictor { return bfgehl.New(cfg) }

// BFGEHL64KB is an 8-table ~64KB BF-GEHL.
func BFGEHL64KB() BFGEHLConfig { return bfgehl.Default64KB() }

// InterleaveTraces merges traces by round-robin quanta of `quantum`
// branches, modelling context switches between processes; PCs are
// offset into disjoint ranges per process.
func InterleaveTraces(quantum int, traces ...Trace) Trace {
	return trace.Interleave(quantum, traces...)
}

// Related-work baseline configurations (paper §VII).
type (
	// GEHLConfig parameterises the O-GEHL predictor [11].
	GEHLConfig = gehl.Config
	// FilterConfig parameterises the Filter predictor [22].
	FilterConfig = filter.Config
	// StridedConfig parameterises the strided-sampling perceptron [26].
	StridedConfig = strided.Config
	// TournamentConfig parameterises the Alpha-style hybrid [17].
	TournamentConfig = tournament.Config
	// YAGSConfig parameterises the YAGS predictor [16].
	YAGSConfig = yags.Config
)

// NewYAGS returns a YAGS predictor (Eden & Mudge 1998): bias in a choice
// PHT, history capacity spent only on the exceptions.
func NewYAGS(cfg YAGSConfig) Predictor { return yags.New(cfg) }

// YAGS64KB is a ~64KB YAGS.
func YAGS64KB() YAGSConfig { return yags.Default64KB() }

// NewGEHL returns an O-GEHL predictor (Seznec 2005), the origin of the
// geometric history-length series TAGE and BF-TAGE use.
func NewGEHL(cfg GEHLConfig) Predictor { return gehl.New(cfg) }

// GEHL64KB is an 8-table ~64KB O-GEHL.
func GEHL64KB() GEHLConfig { return gehl.Default64KB() }

// NewFilter returns the Filter predictor (Chang et al. 1996): bias
// filtering that protects the pattern table rather than restructuring
// the history — the paper's closest related work (§VII).
func NewFilter(cfg FilterConfig) Predictor { return filter.New(cfg) }

// Filter64KB is a ~64KB Filter predictor.
func Filter64KB() FilterConfig { return filter.Default64KB() }

// NewStrided returns a strided-sampling hashed perceptron (Jiménez,
// CBP-4): the competing approach to deep history reach on a budget.
func NewStrided(cfg StridedConfig) Predictor { return strided.New(cfg) }

// Strided64KB is a ~64KB strided perceptron sampling out to 1024
// branches.
func Strided64KB() StridedConfig { return strided.Default64KB() }

// NewTournament returns an Alpha-21264-style local/global hybrid.
func NewTournament(cfg TournamentConfig) Predictor { return tournament.New(cfg) }

// Tournament64KB is a ~64KB tournament hybrid.
func Tournament64KB() TournamentConfig { return tournament.Default64KB() }

// NewProbabilisticBST builds the probabilistic-counter Branch Status
// Table the paper advocates for production designs (§IV-B1): unlike the
// 2-bit FSM, it can reclassify a branch from non-biased back to biased
// when the application changes phase. Assign it to a BFNeuralConfig or
// BFTAGEConfig Classifier field.
func NewProbabilisticBST(entries int, seed uint64) bst.Classifier {
	return bst.NewProbTable(entries, seed)
}

// NewBiasOracle builds a static profile-assisted bias classifier (§VI-D)
// from a profiling pass over the trace; assign it to a BFNeuralConfig or
// BFTAGEConfig Classifier field.
func NewBiasOracle(r TraceReader) (*bst.Oracle, error) {
	o := bst.NewOracle()
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			return o, nil
		}
		if err != nil {
			return nil, err
		}
		o.Observe(rec.PC, rec.Taken)
	}
}
