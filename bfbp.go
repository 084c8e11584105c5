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
	"io"

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
	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

// Core simulation types, re-exported from the harness.
type (
	// Predictor is the interface every branch predictor implements.
	Predictor = sim.Predictor
	// Stats holds accuracy results of a run.
	Stats = sim.Stats
	// Options configures a run (warmup, update delay, per-PC stats,
	// windowed metrics).
	Options = sim.Options
	// Result pairs a predictor name with its stats.
	Result = sim.Result
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
	// RunResult is one completed engine cell.
	RunResult = sim.RunResult
	// ProgressEvent reports one completed engine cell.
	ProgressEvent = sim.ProgressEvent
)

// Observability types, re-exported from internal/obs and the harness.
// See DESIGN.md §Observability for the metric names and the
// bfbp.journal.v1 event schema.
type (
	// MetricsRegistry holds named metrics with Prometheus-text export
	// (WritePrometheus).
	MetricsRegistry = obs.Registry
	// Journal writes bfbp.journal.v1 JSONL run events.
	Journal = obs.Journal
	// Tracer records hierarchical execution spans as a bfbp.trace.v1
	// timeline (Chrome trace-event JSON, loadable in Perfetto); assign
	// to Engine.Tracer.
	Tracer = obs.Tracer
	// EngineMetrics is the engine metric set; assign to Engine.Metrics
	// and it subscribes to every Run's event stream.
	EngineMetrics = sim.EngineMetrics
)

// CapabilitySet holds a predictor's optional interfaces (storage
// accounting, decision provenance, state snapshots, state probes), each
// nil when unimplemented.
type CapabilitySet = sim.CapabilitySet

// Capabilities probes p for every optional interface, replacing
// scattered type asserts: branch on the returned struct's fields.
func Capabilities(p Predictor) CapabilitySet { return sim.Capabilities(p) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEngineMetrics registers the bfbp_* engine metric set on reg;
// assign the result to Engine.Metrics.
func NewEngineMetrics(reg *MetricsRegistry) *EngineMetrics { return sim.NewEngineMetrics(reg) }

// NewJournal returns a run journal writing bfbp.journal.v1 JSONL
// events to w; assign it to Engine.Journal and Close it when done.
func NewJournal(w io.Writer) *Journal { return obs.NewJournal(w) }

// NewTracer returns an execution-span tracer streaming bfbp.trace.v1
// JSON to w; assign it to Engine.Tracer and Close it when done to seal
// the file. Journal events carry the matching span IDs in their "span"
// field.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

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
	// TAGEConfig parameterises TAGE / ISL-TAGE, and the TAGE engine
	// BF-TAGE shares.
	TAGEConfig = tage.Config
	// BFNeuralConfig parameterises the BF-Neural predictor.
	BFNeuralConfig = bfneural.Config
	// BFNeuralMode selects the Fig. 9 ablation level.
	BFNeuralMode = bfneural.Mode
	// BFTAGEConfig parameterises the BF-TAGE predictor: the TAGE
	// engine's fields plus the BF-GHR's.
	BFTAGEConfig = bftage.Config
)

// BF-Neural ablation modes (Fig. 9). The complete design is
// BFNeural64KB.
const (
	// BFModeFilterWeights gates by the BST but keeps the history
	// unfiltered.
	BFModeFilterWeights = bfneural.ModeFilterWeights
	// BFModeBiasFreeGHR filters the history without a recency stack.
	BFModeBiasFreeGHR = bfneural.ModeBiasFreeGHR
)

// NewBimodal returns a PC-indexed 2-bit bimodal predictor.
func NewBimodal(entries int) Predictor { return bimodal.New(entries) }

// NewGShare returns a gshare predictor.
func NewGShare(entries, histBits int) Predictor { return gshare.New(entries, histBits) }

// NewLocal returns a two-level local-history predictor.
func NewLocal(histEntries, histBits, phtEntries int) Predictor {
	return local.New(histEntries, histBits, phtEntries)
}

// NewPerceptron returns a hashed perceptron: the neural engine, its
// weights picked by the HistoryLength most recent branches.
func NewPerceptron(cfg PerceptronConfig) Predictor { return perceptron.New(cfg) }

// Perceptron64KB is the paper's Fig. 9 conventional-perceptron baseline:
// history length 72 in a 64KB budget, no folded-history indexing.
func Perceptron64KB() PerceptronConfig { return perceptron.Default64KB() }

// NewOHSNAP returns an OH-SNAP-style scaled neural predictor.
func NewOHSNAP(cfg OHSNAPConfig) Predictor { return ohsnap.New(cfg) }

// OHSNAP64KB is the ~64KB OH-SNAP configuration used in Fig. 8.
func OHSNAP64KB() OHSNAPConfig { return ohsnap.Default64KB() }

// NewTAGE returns a TAGE/ISL-TAGE predictor: the TAGE engine over the
// conventional global history.
func NewTAGE(cfg TAGEConfig) *tage.Predictor { return tage.New(cfg) }

// ISLTAGE returns the full ISL-TAGE configuration with n tagged tables
// (loop predictor + statistical corrector + IUM), as in Fig. 10.
func ISLTAGE(n int) TAGEConfig { return tage.Conventional(n) }

// TAGEBare returns the TAGE-with-loop-predictor configuration of Fig. 8
// (no SC, no IUM).
func TAGEBare(n int) TAGEConfig { return tage.ConventionalBare(n) }

// NewBFNeural returns the paper's BF-Neural predictor: the NewPerceptron
// engine behind the BST, indexed by recent history and the recency stack.
func NewBFNeural(cfg BFNeuralConfig) *perceptron.Predictor { return bfneural.New(cfg) }

// BFNeural64KB is the §VI-B 64KB BF-Neural configuration.
func BFNeural64KB() BFNeuralConfig { return bfneural.Default64KB() }

// BFNeural32KB is the §VI-B 32KB BF-Neural configuration.
func BFNeural32KB() BFNeuralConfig { return bfneural.Default32KB() }

// BFNeuralAblation returns the Fig. 9 configuration for a mode.
func BFNeuralAblation(mode BFNeuralMode) BFNeuralConfig { return bfneural.Ablation(mode) }

// BFNeuralAhead is the §VIII future-work ahead-pipelined configuration:
// weight rows indexed from history alone, with the PC arriving late.
func BFNeuralAhead() BFNeuralConfig { return bfneural.AheadPipelined() }

// NewBFTAGE returns the paper's BF-TAGE predictor: the same TAGE engine
// as NewTAGE, its tagged tables indexed by the bias-free global history
// register (BF-GHR) instead of the raw history.
func NewBFTAGE(cfg BFTAGEConfig) *tage.Predictor { return bftage.New(cfg) }

// BFISLTAGE returns the BF-ISL-TAGE configuration with n tagged tables
// (SC and IUM inherited from ISL-TAGE), as in Fig. 10.
func BFISLTAGE(n int) BFTAGEConfig { return bftage.Conventional(n) }

// BFTAGEBare drops the SC/IUM components.
func BFTAGEBare(n int) BFTAGEConfig { return bftage.ConventionalBare(n) }

// BFGEHLConfig parameterises the BF-GEHL extension predictor: the O-GEHL
// adder-tree engine indexed by the BF-GHR, beyond the paper's evaluated
// designs (see internal/core/bfgehl).
type BFGEHLConfig = bfgehl.Config

// NewBFGEHL returns the BF-GEHL extension predictor: the NewGEHL engine
// over the BF-GHR.
func NewBFGEHL(cfg BFGEHLConfig) Predictor { return bfgehl.New(cfg) }

// BFGEHL64KB is an 8-table ~64KB BF-GEHL.
func BFGEHL64KB() BFGEHLConfig { return bfgehl.Default64KB() }

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
// CBP-4), the NewPerceptron engine indexed by sampled history offsets:
// the competing approach to deep history reach on a budget.
func NewStrided(cfg StridedConfig) Predictor { return strided.New(cfg) }

// Strided64KB is a ~64KB strided perceptron sampling out to 1024
// branches.
func Strided64KB() StridedConfig { return strided.Default64KB() }

// NewTournament returns an Alpha-21264-style local/global hybrid.
func NewTournament(cfg TournamentConfig) Predictor { return tournament.New(cfg) }

// Tournament64KB is a ~64KB tournament hybrid.
func Tournament64KB() TournamentConfig { return tournament.Default64KB() }

// NewBiasOracle builds a static profile-assisted bias classifier (§VI-D)
// from a profiling pass over the trace; assign it to a BFNeuralConfig or
// BFTAGEConfig Classifier field.
func NewBiasOracle(r TraceReader) (*bst.Oracle, error) { return bst.ProfileOracle(r) }
