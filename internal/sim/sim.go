// Package sim is the trace-driven evaluation harness, modelled on the
// Championship Branch Prediction (CBP) framework the paper uses (§VI-A):
// for each committed conditional branch the predictor is asked for a
// direction, then trained with the true outcome, and accuracy is reported
// as MPKI — mispredictions per 1000 instructions.
//
// The harness also supports a delayed-update mode in which training lags
// prediction by a configurable number of branches, modelling in-flight
// instructions in a real pipeline. ISL-TAGE's Immediate Update Mimicker
// exists precisely to recover the accuracy lost to that delay, so the
// ablation benches exercise both modes.
package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"bfbp/internal/obs"
	"bfbp/internal/trace"
)

// Predictor is the interface every branch predictor implements. Predict is
// called before Update for each committed branch; implementations must not
// train any state in Predict.
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved outcome.
	Update(pc uint64, taken bool, target uint64)
}

// StorageAccounter is implemented by predictors that can report their
// hardware budget, mirroring the paper's Table I accounting.
type StorageAccounter interface {
	Storage() Breakdown
}

// Breakdown is an itemised storage budget.
type Breakdown struct {
	Name       string
	Components []Component
}

// Component is one line of a storage budget.
type Component struct {
	Name string `json:"name"`
	Bits int    `json:"bits"`
}

// TotalBits sums the component budgets.
func (b Breakdown) TotalBits() int {
	t := 0
	for _, c := range b.Components {
		t += c.Bits
	}
	return t
}

// TotalBytes returns the budget in bytes, rounding up.
func (b Breakdown) TotalBytes() int { return (b.TotalBits() + 7) / 8 }

// String renders the budget as a small table.
func (b Breakdown) String() string {
	s := fmt.Sprintf("%s storage:\n", b.Name)
	for _, c := range b.Components {
		s += fmt.Sprintf("  %-28s %8d bits (%d bytes)\n", c.Name, c.Bits, (c.Bits+7)/8)
	}
	s += fmt.Sprintf("  %-28s %8d bits (%d bytes)\n", "TOTAL", b.TotalBits(), b.TotalBytes())
	return s
}

// Stats accumulates accuracy over a run.
type Stats struct {
	Branches     uint64
	Mispredicts  uint64
	Instructions uint64
	// Window is the post-warmup branch interval of the Windows series
	// (0 when no windowed metrics were collected).
	Window uint64
	// Windows is the phase-resolved misprediction series: one entry per
	// Window post-warmup branches, in run order, plus a final partial
	// window. Lin & Tarsa argue predictor claims need exactly this
	// time-resolved view rather than a single end-of-run number.
	Windows []WindowStat
	// Provenance holds the decision trace collected when Options.Explain
	// is set and the predictor implements Explainer; nil otherwise.
	Provenance *ProvenanceStats
	perPC      map[uint64]*pcStat
}

// WindowStat is one fixed-branch-window slice of a run.
type WindowStat struct {
	Branches     uint64
	Mispredicts  uint64
	Instructions uint64
}

// MPKI returns the window's mispredictions per 1000 instructions.
func (w WindowStat) MPKI() float64 {
	if w.Instructions == 0 {
		return 0
	}
	return float64(w.Mispredicts) * 1000 / float64(w.Instructions)
}

type pcStat struct {
	pc       uint64
	count    uint64
	mispreds uint64
}

// MPKI returns mispredictions per 1000 instructions.
func (s Stats) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Mispredicts) * 1000 / float64(s.Instructions)
}

// MispredictRate returns the fraction of mispredicted branches.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// Accuracy returns 1 - MispredictRate.
func (s Stats) Accuracy() float64 { return 1 - s.MispredictRate() }

// Offender is a per-PC misprediction summary.
type Offender struct {
	PC          uint64
	Count       uint64
	Mispredicts uint64
}

// TopOffenders returns the n PCs contributing the most mispredictions, in
// descending order. It returns nil unless the run collected per-PC stats.
func (s Stats) TopOffenders(n int) []Offender {
	if s.perPC == nil {
		return nil
	}
	all := make([]Offender, 0, len(s.perPC))
	for _, st := range s.perPC {
		all = append(all, Offender{PC: st.pc, Count: st.count, Mispredicts: st.mispreds})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Mispredicts != all[j].Mispredicts {
			return all[i].Mispredicts > all[j].Mispredicts
		}
		return all[i].PC < all[j].PC
	})
	if n < len(all) {
		all = all[:n]
	}
	return all
}

// Merge folds other into s as a subsequent shard of the same logical
// run: counters add, per-PC attributions add site-wise, and windowed
// series concatenate in run order (s's trailing partial window, if any,
// stays a short window rather than being re-bucketed). No code in the
// engine calls it: it serves library users who run one logical trace
// in shards, and the resume ≡ straight-run tests, which merge the two
// halves of a split run without losing TopOffenders or phase data.
// Window adopts the first non-zero size.
//
// When exactly one side collected windowed metrics (the other ran with
// Window = 0), the unwindowed shard's aggregate is folded in as a
// single synthetic window at its position in run order, so the merged
// series still covers the whole run and the invariant
// sum(Windows) == post-warmup totals is preserved. A synthetic
// window's Branches field includes that shard's warmup branches (the
// shard did not record the split); its Mispredicts, Instructions, and
// therefore MPKI are exact.
func (s *Stats) Merge(other Stats) {
	sWindowed := s.Window > 0 || len(s.Windows) > 0
	oWindowed := other.Window > 0 || len(other.Windows) > 0
	if !sWindowed && oWindowed && s.Branches > 0 {
		s.Windows = append(s.Windows, WindowStat{
			Branches:     s.Branches,
			Mispredicts:  s.Mispredicts,
			Instructions: s.Instructions,
		})
	}
	s.Branches += other.Branches
	s.Mispredicts += other.Mispredicts
	s.Instructions += other.Instructions
	if other.perPC != nil {
		if s.perPC == nil {
			s.perPC = make(map[uint64]*pcStat, len(other.perPC))
		}
		for pc, o := range other.perPC {
			st := s.perPC[pc]
			if st == nil {
				st = &pcStat{pc: pc}
				s.perPC[pc] = st
			}
			st.count += o.count
			st.mispreds += o.mispreds
		}
	}
	if s.Window == 0 {
		s.Window = other.Window
	}
	if other.Provenance != nil {
		if s.Provenance == nil {
			s.Provenance = NewProvenanceStats()
		}
		s.Provenance.merge(other.Provenance)
	}
	if sWindowed && !oWindowed && other.Branches > 0 {
		s.Windows = append(s.Windows, WindowStat{
			Branches:     other.Branches,
			Mispredicts:  other.Mispredicts,
			Instructions: other.Instructions,
		})
		return
	}
	s.Windows = append(s.Windows, other.Windows...)
}

// Options configures a run.
type Options struct {
	// Warmup is the number of initial branches excluded from the
	// statistics (the predictor still trains on them).
	Warmup uint64
	// UpdateDelay is the number of branches by which training lags
	// prediction, modelling in-flight instructions. 0 trains immediately,
	// which matches the CBP framework and the paper's evaluation.
	UpdateDelay int
	// PerPC enables per-branch misprediction attribution.
	PerPC bool
	// Window, when non-zero, records an MPKI time series with one
	// WindowStat per Window post-warmup branches (plus a final partial
	// window) into Stats.Windows.
	Window uint64
	// OnEvent, when non-nil, receives the run's live events on the
	// simulation goroutine, so it must be fast: a WindowEvent as each
	// window closes (Window > 0, including the final partial one) and a
	// TableStats sample per ProbeStateEvery branches. The engine
	// installs its own, forwarding to its receivers, when telemetry is
	// attached; a per-job OnEvent still sees the run-local events first.
	OnEvent func(Event)
	// Probe, when non-nil, samples Predict/Update latencies into its
	// histograms every Probe.Every branches. The engine injects one
	// automatically when Engine.Metrics is set; a nil Probe runs the
	// uninstrumented hot path.
	Probe *HarnessProbe
	// Explain enables the decision-trace recorder: when the predictor
	// implements Explainer, every post-warmup prediction is attributed to
	// its supplying component (and provider bank, for TAGE-class
	// predictors) and every misprediction is classified into the cause
	// taxonomy, collected into Stats.Provenance. Predictors without an
	// Explain method run unchanged. Off (the default) leaves the hot path
	// and all results byte-identical.
	Explain bool
	// ExplainEvery throttles the confidence-margin sampling of an
	// explained run: one margin sample per ExplainEvery branches, rounded
	// up to a power of two (0 means every 64). Attribution and taxonomy
	// always cover every post-warmup branch; only margins are sampled.
	ExplainEvery uint64
	// CheckpointEvery, when non-zero, invokes CheckpointFn at the first
	// batch boundary at or after every CheckpointEvery branches. Batches
	// are runBatchSize records, so the actual checkpoint positions are
	// quantised to that granularity; CheckpointFn receives the exact
	// branch count. Requires UpdateDelay == 0: snapshots must be taken at
	// quiescent points, with no prediction awaiting its update.
	CheckpointEvery uint64
	// CheckpointFn receives the predictor at each checkpoint boundary
	// (typically to SaveState it somewhere). A non-nil error aborts the
	// run. Must be set when CheckpointEvery is non-zero.
	CheckpointFn func(p Predictor, branches uint64) error
	// ProbeStateEvery, when non-zero, samples predictor-internal table
	// statistics: for predictors implementing StateProbe, OnEvent
	// receives one TableStats sample at the first batch boundary at or
	// after every ProbeStateEvery branches (quantised like checkpoints)
	// plus one final sample at end of trace, each stamped with the
	// branch count it was taken at. Probing is observation-only —
	// results are bit-identical with it on or off — and predictors
	// without the interface, or runs without OnEvent, run unchanged.
	ProbeStateEvery uint64
	// TraceSpan, when non-nil, is the parent execution span under which
	// RunContext records its timeline: one "batch" span per record
	// batch, a "drain" span for the delayed-update flush, and — when a
	// Probe samples a branch — retroactive "predict"/"update" phase
	// slices. The engine injects the per-run span automatically when
	// Engine.Tracer is set; a nil span runs the uninstrumented
	// (zero-alloc) hot path.
	TraceSpan *obs.Span
}

type pending struct {
	pc     uint64
	taken  bool
	target uint64
}

// Run drives p over the trace and returns accuracy statistics.
func Run(p Predictor, r trace.Reader, opt Options) (Stats, error) {
	return RunContext(context.Background(), p, r, opt)
}

// runBatchSize is the record-batch granularity of the simulation loop:
// trace decoding, EOF checks, and context polling are amortised over
// batches of this many branches, so the per-branch path is just the
// Predict/Update calls plus counter arithmetic.
const runBatchSize = 4096

// RunContext drives p over the trace like Run, but aborts with the
// context's error as soon as ctx is cancelled (checked every batch, i.e.
// at most a few thousand branches). The stats accumulated so far
// accompany the error.
//
// The trace is consumed through trace.BatchReader when r implements it
// (every reader in internal/trace and internal/workload does); other
// readers are adapted transparently. Steady-state operation performs no
// allocations: the batch buffer is reused across reads and the delayed-
// update queue is a fixed ring.
func RunContext(ctx context.Context, p Predictor, r trace.Reader, opt Options) (Stats, error) {
	stats := Stats{Window: opt.Window}
	if opt.CheckpointEvery > 0 && opt.CheckpointFn == nil {
		return stats, errors.New("sim: CheckpointEvery set without CheckpointFn")
	}
	if opt.CheckpointEvery > 0 && opt.UpdateDelay > 0 {
		return stats, errors.New("sim: checkpointing requires immediate updates (UpdateDelay 0): snapshots must be quiescent")
	}
	nextCkpt := opt.CheckpointEvery
	// State probing fires at batch boundaries too: the predictor is
	// quiescent there, so an O(table) scan cannot interleave with a
	// branch in flight.
	var (
		sprobe    StateProbe
		nextProbe uint64
	)
	if opt.ProbeStateEvery > 0 && opt.OnEvent != nil {
		if spr, ok := p.(StateProbe); ok {
			sprobe = spr
			nextProbe = opt.ProbeStateEvery
		}
	}
	if opt.PerPC {
		stats.perPC = make(map[uint64]*pcStat)
	}
	probe := opt.Probe
	var probeMask uint64
	if probe != nil {
		probeMask = probe.sampleMask()
	}
	var dt *decisionTrace
	if opt.Explain {
		if ex, ok := p.(Explainer); ok {
			dt = newDecisionTrace(ex, opt.ExplainEvery)
			stats.Provenance = dt.pv
		}
	}
	// Delayed updates sit in a fixed-capacity ring: enqueue at
	// (head+len) mod cap, dequeue at head. Capacity UpdateDelay+1 covers
	// the transient enqueue-then-dequeue overlap.
	var (
		dq     []pending
		dqHead int
		dqLen  int
	)
	if opt.UpdateDelay > 0 {
		dq = make([]pending, opt.UpdateDelay+1)
	}
	br := trace.Batched(r)
	batch := make([]trace.Record, runBatchSize)
	var win WindowStat
	// sp parents the run's timeline; every Span/Phase call below is a
	// nil-safe no-op (and allocation-free) when tracing is off.
	sp := opt.TraceSpan
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		// The batch span covers the read too, so trace synthesis /
		// decode time (the "queueing" ahead of predict+update) is part
		// of the slice.
		bsp := sp.Child("batch", "batch")
		n, err := br.ReadBatch(batch)
		if err != nil {
			bsp.Attr("records", 0).End()
			if errors.Is(err, io.EOF) {
				break
			}
			return stats, fmt.Errorf("sim: trace read: %w", err)
		}
		for _, rec := range batch[:n] {
			// Sampled latency probe: time every probeMask+1'th branch so
			// instrumentation costs two clock reads per period, not per
			// branch. The nil-probe path is a single predictable test.
			sample := probe != nil && stats.Branches&probeMask == 0
			var pred bool
			if sample {
				t0 := time.Now()
				pred = p.Predict(rec.PC)
				d := time.Since(t0)
				probe.Predict.Observe(d.Seconds())
				sp.Phase("predict", d)
			} else {
				pred = p.Predict(rec.PC)
			}
			inWarmup := stats.Branches < opt.Warmup
			stats.Branches++
			if !inWarmup {
				stats.Instructions += uint64(rec.Instret)
				miss := pred != rec.Taken
				if miss {
					stats.Mispredicts++
				}
				// Provenance is read here, after Predict and before Update,
				// so Explain always sees the in-flight prediction it is
				// attributing.
				if dt != nil {
					dt.record(rec.PC, miss, stats.Branches)
				}
				if opt.Window > 0 {
					win.Branches++
					win.Instructions += uint64(rec.Instret)
					if miss {
						win.Mispredicts++
					}
					if win.Branches == opt.Window {
						stats.Windows = append(stats.Windows, win)
						if opt.OnEvent != nil {
							opt.OnEvent(windowEvent(len(stats.Windows)-1, win, false))
						}
						win = WindowStat{}
					}
				}
				if stats.perPC != nil {
					st := stats.perPC[rec.PC]
					if st == nil {
						st = &pcStat{pc: rec.PC}
						stats.perPC[rec.PC] = st
					}
					st.count++
					if miss {
						st.mispreds++
					}
				}
			} else if dt != nil {
				// Warmup occurrences still advance the per-site counts so
				// cold-site classification reflects what the predictor has
				// actually trained on.
				dt.warm(rec.PC)
			}
			u := pending{rec.PC, rec.Taken, rec.Target}
			if opt.UpdateDelay > 0 {
				dq[(dqHead+dqLen)%len(dq)] = u
				dqLen++
				if dqLen <= opt.UpdateDelay {
					continue
				}
				u = dq[dqHead]
				dqHead = (dqHead + 1) % len(dq)
				dqLen--
			}
			if sample {
				t0 := time.Now()
				p.Update(u.pc, u.taken, u.target)
				d := time.Since(t0)
				probe.Update.Observe(d.Seconds())
				sp.Phase("update", d)
			} else {
				p.Update(u.pc, u.taken, u.target)
			}
		}
		bsp.Attr("records", n).End()
		// Checkpoints land on batch boundaries: every prediction issued so
		// far has been trained, so Snapshotter predictors are quiescent.
		if nextCkpt > 0 && stats.Branches >= nextCkpt {
			csp := sp.Child("checkpoint", "checkpoint")
			err := opt.CheckpointFn(p, stats.Branches)
			csp.End()
			if err != nil {
				return stats, fmt.Errorf("sim: checkpoint at branch %d: %w", stats.Branches, err)
			}
			for nextCkpt <= stats.Branches {
				nextCkpt += opt.CheckpointEvery
			}
		}
		if nextProbe > 0 && stats.Branches >= nextProbe {
			psp := sp.Child("tablestats", "tablestats")
			probeState(sprobe, stats.Branches, opt.OnEvent)
			psp.End()
			for nextProbe <= stats.Branches {
				nextProbe += opt.ProbeStateEvery
			}
		}
	}
	if dqLen > 0 {
		dsp := sp.Child("drain", "drain").Attr("pending", dqLen)
		for ; dqLen > 0; dqLen-- {
			u := dq[dqHead]
			dqHead = (dqHead + 1) % len(dq)
			p.Update(u.pc, u.taken, u.target)
		}
		dsp.End()
	}
	if win.Branches > 0 {
		stats.Windows = append(stats.Windows, win)
		if opt.OnEvent != nil {
			opt.OnEvent(windowEvent(len(stats.Windows)-1, win, true))
		}
	}
	// A final state sample covers the run end (and guarantees short runs
	// still produce at least one tablestats event).
	if sprobe != nil {
		probeState(sprobe, stats.Branches, opt.OnEvent)
	}
	// Warmup branches contribute no instructions; Branches keeps the full
	// count so callers can verify trace coverage.
	return stats, nil
}

// probeState takes one state sample at branch and hands it to onEvent.
func probeState(p StateProbe, branch uint64, onEvent func(Event)) {
	ts := p.ProbeState()
	ts.Branch = branch
	onEvent(ts)
}

// Result pairs a predictor name with its run statistics.
type Result struct {
	Predictor string
	Stats     Stats
}

// RunAll evaluates several predictors over identical copies of a trace
// source, opening a fresh reader per predictor.
func RunAll(preds []Predictor, src TraceSource, opt Options) ([]Result, error) {
	out := make([]Result, 0, len(preds))
	for _, p := range preds {
		st, err := Run(p, src.Open(), opt)
		if err != nil {
			return nil, fmt.Errorf("sim: running %s on %s: %w", p.Name(), src.Name(), err)
		}
		out = append(out, Result{Predictor: p.Name(), Stats: st})
	}
	return out, nil
}

// StaticPredictor is a trivial predictor that always answers the same
// direction — the zero baseline of the field and a useful harness test
// double.
type StaticPredictor struct {
	Direction bool
}

// Name implements Predictor.
func (s *StaticPredictor) Name() string {
	if s.Direction {
		return "static-taken"
	}
	return "static-not-taken"
}

// Predict implements Predictor.
func (s *StaticPredictor) Predict(pc uint64) bool { return s.Direction }

// Update implements Predictor.
func (s *StaticPredictor) Update(pc uint64, taken bool, target uint64) {}
