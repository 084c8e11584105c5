package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bfbp/internal/core/bfneural"
	"bfbp/internal/core/bftage"
	"bfbp/internal/predictor/ohsnap"
	"bfbp/internal/predictor/tage"
	"bfbp/internal/sim"
	"bfbp/internal/workload"
)

// The figure generators and the full-suite runner all execute on the
// sim.Engine: streaming generator-backed trace sources (no trace is ever
// materialised), per-cell parallelism, deterministic row ordering, and
// context cancellation.

func (c Config) workers() int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if w > 8 {
			w = 8
		}
	}
	return w
}

// forEach evaluates fn for every selected trace on the shared engine
// substrate and returns the rows in suite order. It serves the figures
// whose per-trace work is not a plain predictor run (bias profiling,
// oracle construction).
func forEach(cfg Config, fn func(s workload.Spec) Row) []Row {
	specs := cfg.traces()
	rows := make([]Row, len(specs))
	err := sim.ForEach(context.Background(), len(specs), cfg.workers(), func(_ context.Context, i int) error {
		rows[i] = fn(specs[i])
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return rows
}

// namedPred couples a column label with a predictor constructor.
type namedPred struct {
	col string
	mk  func() sim.Predictor
}

// matrix runs preds × cfg.traces() on the engine — one streaming job per
// cell, warmup 10% of each trace — and returns one MPKI row per trace in
// suite order with one value per predictor column.
func matrix(cfg Config, figure string, preds []namedPred) []Row {
	specs := cfg.traces()
	var jobs []sim.Job
	for _, s := range specs {
		n := cfg.branchesFor(s)
		opt := &sim.Options{Warmup: uint64(n / 10)}
		src := s.Source(n)
		for _, p := range preds {
			jobs = append(jobs, sim.Job{
				Predictor: sim.PredictorSpec{Name: p.col, New: p.mk},
				Source:    src,
				Options:   opt,
			})
		}
	}
	results := runEngine(cfg, figure, jobs)
	rows := make([]Row, len(specs))
	for ti, s := range specs {
		vals := make([]float64, len(preds))
		for pi := range preds {
			vals[pi] = results[ti*len(preds)+pi].Stats.MPKI()
		}
		rows[ti] = Row{Label: s.Name, Vals: vals}
	}
	return rows
}

func runEngine(cfg Config, figure string, jobs []sim.Job) []sim.RunResult {
	eng := sim.Engine{
		Workers: cfg.workers(),
		Progress: func(ev sim.ProgressEvent) {
			cfg.logf("%s: %s/%s done (%d/%d)\n", figure, ev.Trace, ev.Predictor, ev.Done, ev.Total)
		},
	}
	cfg.Telemetry.Attach(&eng)
	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", figure, err))
	}
	return results
}

// SuitePredictors is the headline comparison set of the paper's Fig. 8
// plus the 10-table BF-ISL-TAGE: the default matrix for full-suite runs.
func SuitePredictors() []sim.PredictorSpec {
	return []sim.PredictorSpec{
		{Name: "oh-snap", New: func() sim.Predictor { return ohsnap.New(ohsnap.Default64KB()) }},
		{Name: "tage-15", New: func() sim.Predictor { return tage.New(tage.ConventionalBare(15)) }},
		{Name: "bf-neural", New: func() sim.Predictor { return bfneural.New(bfneural.Default64KB()) }},
		{Name: "bf-isl-tage-10", New: func() sim.Predictor { return bftage.New(bftage.Conventional(10)) }},
	}
}

// Suite runs the full preds × traces matrix with windowed interval
// metrics (window = 5% of each trace's post-warmup branches, so every
// run yields ~20 phase samples) and returns the engine results in suite
// order. Cancelling ctx aborts the sweep with ctx's error.
func Suite(ctx context.Context, cfg Config, preds []sim.PredictorSpec) ([]sim.RunResult, error) {
	specs := cfg.traces()
	var jobs []sim.Job
	for _, s := range specs {
		n := cfg.branchesFor(s)
		warm := uint64(n / 10)
		opt := &sim.Options{Warmup: warm, Window: (uint64(n) - warm) / 20}
		src := s.Source(n)
		for _, p := range preds {
			jobs = append(jobs, sim.Job{Predictor: p, Source: src, Options: opt})
		}
	}
	start := time.Now()
	eng := sim.Engine{
		Workers: cfg.workers(),
		Progress: func(ev sim.ProgressEvent) {
			cfg.logf("suite: %s/%s MPKI %.3f (%d/%d, %s)\n",
				ev.Trace, ev.Predictor, ev.Stats.MPKI(), ev.Done, ev.Total, ev.Elapsed.Round(time.Millisecond))
		},
	}
	cfg.Telemetry.Attach(&eng)
	results, err := eng.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	cfg.logf("suite: %d runs in %s\n", len(results), time.Since(start).Round(time.Millisecond))
	return results, nil
}
