package sim

import (
	"sort"
	"sync"

	"bfbp/internal/obs"
)

// The event stream. Every fact the engine observes about a suite — its
// lifecycle, a closed window, a state sample, a finished run's
// provenance — is built once as one of the types below and handed, in
// a fixed order, to the engine's receivers (Engine.emit). The structs
// are the bfbp.journal.v1 payloads: their json tags are the frozen
// schema of DESIGN.md §6, and each carries the optional span ID that
// joins it to its bfbp.trace.v1 timeline slice. Wall-clock-derived
// fields (elapsed_ns, branches_per_sec, plus the "wall" stamp the
// journal itself adds) are the only nondeterministic content.

// Event is one observed fact. Kind is its bfbp.journal.v1 event name.
type Event interface {
	Kind() string
}

// SuiteStart opens an Engine.Run.
type SuiteStart struct {
	Jobs       int      `json:"jobs"`
	Workers    int      `json:"workers"`
	Predictors []string `json:"predictors"`
	Traces     []string `json:"traces"`
	Span       uint64   `json:"span,omitempty"`
}

// SuiteFinish closes an Engine.Run.
type SuiteFinish struct {
	Runs      int    `json:"runs"`
	Failed    int    `json:"failed"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Span      uint64 `json:"span,omitempty"`
}

// RunStart marks a worker picking up one matrix cell.
type RunStart struct {
	Trace     string `json:"trace"`
	Predictor string `json:"predictor"`
	Worker    int    `json:"worker"`
	Span      uint64 `json:"span,omitempty"`
}

// RunFinish reports one successful cell.
type RunFinish struct {
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
	cell           int
}

// RunError reports one failed cell.
type RunError struct {
	Trace     string `json:"trace"`
	Predictor string `json:"predictor"`
	Worker    int    `json:"worker"`
	Error     string `json:"error"`
	Span      uint64 `json:"span,omitempty"`
	cell      int
}

// WindowEvent is the live counterpart of a Stats.Windows entry: it is
// delivered the moment each window closes, while the run is still in
// flight, so the journal and the mpki counter track follow phase
// behaviour without waiting for the run to end. RunContext leaves
// Trace, Predictor and Span empty; the engine fills them in.
type WindowEvent struct {
	Trace     string `json:"trace"`
	Predictor string `json:"predictor"`
	// Index is the window's position in the Stats.Windows series.
	Index        int     `json:"index"`
	Branches     uint64  `json:"branches"`
	Mispredicts  uint64  `json:"mispredicts"`
	Instructions uint64  `json:"instructions"`
	MPKI         float64 `json:"mpki"`
	// Final marks the trailing partial window emitted at end of trace.
	Final bool   `json:"final,omitempty"`
	Span  uint64 `json:"span,omitempty"`
}

// ProvenanceEvent is the decision-trace summary of one explained cell.
type ProvenanceEvent struct {
	Trace         string            `json:"trace"`
	Predictor     string            `json:"predictor"`
	Explained     uint64            `json:"explained"`
	Causes        map[string]uint64 `json:"causes"`
	MarginSamples uint64            `json:"margin_samples"`
	MarginCounts  []uint64          `json:"margin_counts"`
	Span          uint64            `json:"span,omitempty"`
}

// ComponentAttribution is the per-component and per-bank attribution
// of one explained cell, components sorted by name.
type ComponentAttribution struct {
	Trace      string           `json:"trace"`
	Predictor  string           `json:"predictor"`
	Components []ComponentEntry `json:"components"`
	BankHits   []uint64         `json:"bank_hits,omitempty"`
	BankMisses []uint64         `json:"bank_misses,omitempty"`
	Span       uint64           `json:"span,omitempty"`
}

// ComponentEntry is one named component of a ComponentAttribution.
type ComponentEntry struct {
	Name string `json:"name"`
	ComponentStat
}

// Storage is a predictor's hardware budget, emitted once per predictor
// name per suite.
type Storage struct {
	Predictor  string      `json:"predictor"`
	TotalBits  int         `json:"total_bits"`
	Components []Component `json:"components"`
	Span       uint64      `json:"span,omitempty"`
}

// Checkpoint reports a bfbp.state.v1 snapshot of the predictor, Bytes
// long, written to Path after Branch committed branches — mid-run
// (Options.CheckpointEvery) or at run end. bfsim journals it directly,
// outside any engine span, so unlike the engine's events it carries no
// span.
type Checkpoint struct {
	Trace     string `json:"trace"`
	Predictor string `json:"predictor"`
	Path      string `json:"path"`
	Branch    uint64 `json:"branch"`
	Bytes     int    `json:"bytes"`
}

func (SuiteStart) Kind() string           { return "suite_start" }
func (SuiteFinish) Kind() string          { return "suite_finish" }
func (RunStart) Kind() string             { return "run_start" }
func (RunFinish) Kind() string            { return "run_finish" }
func (RunError) Kind() string             { return "run_error" }
func (WindowEvent) Kind() string          { return "window" }
func (ProvenanceEvent) Kind() string      { return "provenance" }
func (ComponentAttribution) Kind() string { return "component_attribution" }
func (Storage) Kind() string              { return "storage" }
func (Checkpoint) Kind() string           { return "checkpoint" }
func (TableStats) Kind() string           { return "tablestats" }

// windowEvent builds the event for window index of a run.
func windowEvent(index int, w WindowStat, final bool) WindowEvent {
	return WindowEvent{
		Index:        index,
		Branches:     w.Branches,
		Mispredicts:  w.Mispredicts,
		Instructions: w.Instructions,
		MPKI:         w.MPKI(),
		Final:        final,
	}
}

// emit hands ev to every receiver, in a fixed order: the journal, the
// metrics, then the counter tracks.
func (e *Engine) emit(ev Event) {
	e.Journal.Emit(ev.Kind(), ev)
	e.Metrics.observe(ev)
	counterTracks(e.Tracer, ev)
}

// emitRun emits the event group of one completed cell: RunFinish, the
// ProvenanceEvent and ComponentAttribution of an explained run, and
// (once per predictor name per suite) its Storage budget.
func (e *Engine) emitRun(res RunResult, worker, cell int, span uint64, storageSeen *sync.Map) {
	st := res.Stats
	var rate float64
	if s := res.Elapsed.Seconds(); s > 0 {
		rate = float64(st.Branches) / s
	}
	e.emit(RunFinish{
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
		cell:           cell,
	})
	if pv := st.Provenance; pv != nil {
		e.emit(ProvenanceEvent{
			Trace:         res.Trace,
			Predictor:     res.Predictor,
			Explained:     pv.Explained,
			Causes:        pv.Causes,
			MarginSamples: pv.MarginSamples,
			MarginCounts:  pv.MarginCounts,
			Span:          span,
		})
		attr := ComponentAttribution{
			Trace:      res.Trace,
			Predictor:  res.Predictor,
			BankHits:   pv.BankHits,
			BankMisses: pv.BankMisses,
			Span:       span,
		}
		for name, cs := range pv.Components {
			attr.Components = append(attr.Components, ComponentEntry{Name: name, ComponentStat: *cs})
		}
		sort.Slice(attr.Components, func(a, b int) bool { return attr.Components[a].Name < attr.Components[b].Name })
		e.emit(attr)
	}
	if sa, ok := res.Instance.(StorageAccounter); ok {
		if _, dup := storageSeen.LoadOrStore(res.Predictor, true); !dup {
			b := sa.Storage()
			e.emit(Storage{Predictor: res.Predictor, TotalBits: b.TotalBits(), Components: b.Components, Span: span})
		}
	}
}

// counterTracks draws Perfetto counter tracks: each closed window
// extends the mpki track with one series per (trace, predictor), and
// each TableStats sample two tracks per (predictor, trace), bank
// occupancy and weight saturation. Other events, and a nil tracer, are
// ignored.
func counterTracks(tr *obs.Tracer, ev Event) {
	if tr == nil {
		return
	}
	switch ev := ev.(type) {
	case WindowEvent:
		tr.Counter("mpki", map[string]float64{ev.Trace + "/" + ev.Predictor: ev.MPKI})
	case TableStats:
		if len(ev.Banks) > 0 {
			occ := make(map[string]float64, len(ev.Banks))
			for _, b := range ev.Banks {
				occ[b.Label()] = b.Occupancy()
			}
			tr.Counter("occupancy:"+ev.Predictor+"/"+ev.Trace, occ)
		}
		if len(ev.Weights) > 0 {
			sat := make(map[string]float64, len(ev.Weights))
			for _, w := range ev.Weights {
				sat[w.Name] = w.SaturationRate()
			}
			tr.Counter("weight-saturation:"+ev.Predictor+"/"+ev.Trace, sat)
		}
	}
}

// suiteNames extracts the distinct predictor and trace names of a job
// list, in first-appearance order, for the SuiteStart event.
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
