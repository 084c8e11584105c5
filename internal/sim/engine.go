// Suite-evaluation engine: runs an arbitrary (predictor × trace) matrix
// on a worker pool with streaming trace readers, deterministic result
// ordering, first-error propagation, context cancellation, and progress
// callbacks. Credible predictor claims need large trace sweeps (Lin &
// Tarsa, "Branch Prediction Is Not a Solved Problem"); this engine is
// the substrate that makes such sweeps cheap to express and safe to
// parallelise.

package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bfbp/internal/obs"
	"bfbp/internal/trace"
)

// TraceSource names a trace and opens fresh readers over it. Open must
// return an independent reader on every call so that concurrent runs of
// the same trace never share state. Implementations include the
// streaming generator-backed workload.SpecSource (no full-trace
// materialisation) and the in-memory trace.NamedSlice.
type TraceSource interface {
	Name() string
	Open() trace.Reader
}

// FuncSource adapts a label and an open function to TraceSource.
type FuncSource struct {
	Label  string
	OpenFn func() trace.Reader
}

// Name identifies the trace in results.
func (f FuncSource) Name() string { return f.Label }

// Open invokes the wrapped function.
func (f FuncSource) Open() trace.Reader { return f.OpenFn() }

// PredictorSpec names a predictor and constructs fresh instances of it.
// The engine builds one instance per (predictor, trace) cell so that
// runs never share predictor state across traces or workers.
type PredictorSpec struct {
	Name string
	New  func() Predictor
}

// Job is one cell of an evaluation matrix. A nil Options inherits the
// engine's defaults.
type Job struct {
	Predictor PredictorSpec
	Source    TraceSource
	Options   *Options
}

// Matrix builds the full cross product of sources × predictors with the
// given per-cell options, in (source-major, predictor-minor) order —
// the suite reporting order used throughout the repository.
func Matrix(sources []TraceSource, preds []PredictorSpec, opt Options) []Job {
	jobs := make([]Job, 0, len(sources)*len(preds))
	o := opt
	for _, s := range sources {
		for _, p := range preds {
			jobs = append(jobs, Job{Predictor: p, Source: s, Options: &o})
		}
	}
	return jobs
}

// RunResult is one completed matrix cell. Instance is the predictor the
// engine built for the cell, retained so callers can inspect post-run
// state (storage budgets, StateProbe samples).
type RunResult struct {
	Trace     string
	Predictor string
	Stats     Stats
	Elapsed   time.Duration
	Instance  Predictor
}

// ProgressEvent reports one completed cell. Events are delivered
// serially (never concurrently) but in completion order, which varies
// with the worker count.
type ProgressEvent struct {
	// Done counts completed cells including this one; Total is the job
	// count.
	Done, Total int
	Trace       string
	Predictor   string
	Stats       Stats
	Elapsed     time.Duration
}

// Engine evaluates (predictor × trace) matrices in parallel. The zero
// value is ready to use: it runs with GOMAXPROCS workers and default
// Options. An Engine is stateless across Run calls and safe for
// concurrent use.
type Engine struct {
	// Workers bounds cell parallelism (<= 0 means GOMAXPROCS).
	Workers int
	// Options applies to jobs whose Options field is nil.
	Options Options
	// Progress, when non-nil, receives one event per completed cell.
	Progress func(ProgressEvent)
	// Metrics, when non-nil, receives live engine telemetry (queue
	// depth, busy workers, run counters/latencies, state-probe gauges)
	// from the event stream. Nil disables collection entirely.
	Metrics *EngineMetrics
	// Journal, when non-nil, records every event as a bfbp.journal.v1
	// line (suite/run lifecycle, per-window MPKI as each window closes,
	// worker state transitions, storage budgets, state samples).
	Journal *obs.Journal
	// Tracer, when non-nil, records the suite's execution timeline as
	// bfbp.trace.v1 spans: one suite span on lane 0, one run span per
	// matrix cell on its worker's lane, and the harness's batch, drain,
	// checkpoint and tablestats spans beneath each run. Events
	// carry the matching span IDs in their "span" field, so a journal
	// record can be joined to its timeline slice, and state samples
	// become occupancy and weight-saturation counter tracks. Nil
	// disables tracing entirely and runs the uninstrumented path.
	Tracer *obs.Tracer
}

// Run evaluates every job and returns results in job order — identical
// regardless of the worker count, since each cell gets a fresh predictor
// and a fresh reader. The first error cancels the remaining jobs and is
// returned after all workers have drained, so Run never leaks
// goroutines; cancelling ctx mid-suite likewise returns ctx's error.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]RunResult, error) {
	results := make([]RunResult, len(jobs))
	var (
		mu          sync.Mutex
		done        int
		failed      int
		storageSeen sync.Map
	)
	tr := e.Tracer
	observed := e.Metrics != nil || e.Journal != nil || tr != nil
	workers := effectiveWorkers(e.Workers, len(jobs))
	preds, traces := suiteNames(jobs)
	var suite *obs.Span
	if tr != nil {
		tr.ProcessName("bfbp")
		tr.ThreadName(0, "engine")
		for w := 0; w < workers; w++ {
			tr.ThreadName(int64(w+1), fmt.Sprintf("worker %d", w))
		}
		suite = tr.StartSpan("suite", "suite", 0).
			Attr("jobs", len(jobs)).Attr("workers", workers)
	}
	e.emit(SuiteStart{Jobs: len(jobs), Workers: workers, Predictors: preds, Traces: traces, Span: suite.ID()})
	suiteStart := time.Now()
	err := forEachWorker(ctx, len(jobs), e.Workers, func(ctx context.Context, worker, i int) error {
		job := jobs[i]
		tn, pn := job.Source.Name(), job.Predictor.Name
		opt := e.Options
		if job.Options != nil {
			opt = *job.Options
		}
		var rsp *obs.Span
		if tr != nil {
			// Run spans live on their worker's lane (tid worker+1; the
			// suite span owns lane 0) so Perfetto shows one row per
			// worker with the cells it executed.
			rsp = suite.ChildTID("run", pn+"/"+tn, int64(worker+1)).
				Attr("trace", tn).Attr("predictor", pn)
			opt.TraceSpan = rsp
		}
		sid := rsp.ID()
		if observed && (opt.Window > 0 || opt.ProbeStateEvery > 0) {
			// Windows and state samples enter the stream live, from the
			// cell's worker, as RunContext produces them.
			inner := opt.OnEvent
			opt.OnEvent = func(ev Event) {
				if inner != nil {
					inner(ev)
				}
				switch ev := ev.(type) {
				case WindowEvent:
					ev.Trace, ev.Predictor, ev.Span = tn, pn, sid
					e.emit(ev)
				case TableStats:
					ev.Trace, ev.Predictor, ev.Span, ev.cell = tn, pn, sid, i+1
					e.emit(ev)
				}
			}
		}
		// Per-cell events are built only for an observed engine, so a
		// bare one allocates nothing for them.
		if observed {
			e.emit(RunStart{Trace: tn, Predictor: pn, Worker: worker, Span: sid})
		}
		p := job.Predictor.New()
		start := time.Now()
		st, err := RunContext(ctx, p, job.Source.Open(), opt)
		elapsed := time.Since(start)
		rsp.Attr("branches", st.Branches).End()
		if err != nil {
			mu.Lock()
			failed++
			mu.Unlock()
			if observed {
				e.emit(RunError{Trace: tn, Predictor: pn, Worker: worker, Error: err.Error(), Span: sid, cell: i + 1})
			}
			return fmt.Errorf("sim: %s on %s: %w", pn, tn, err)
		}
		results[i] = RunResult{Trace: tn, Predictor: pn, Stats: st, Elapsed: elapsed, Instance: p}
		if observed {
			e.emitRun(results[i], worker, i+1, sid, &storageSeen)
		}
		mu.Lock()
		done++
		if e.Progress != nil {
			e.Progress(ProgressEvent{
				Done:      done,
				Total:     len(jobs),
				Trace:     tn,
				Predictor: pn,
				Stats:     st,
				Elapsed:   elapsed,
			})
		}
		mu.Unlock()
		return nil
	})
	suite.Attr("runs", done).Attr("failed", failed).End()
	e.emit(SuiteFinish{Runs: done, Failed: failed, ElapsedNS: time.Since(suiteStart).Nanoseconds(), Span: suite.ID()})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ForEach runs fn(ctx, i) for i in [0, n) on up to workers goroutines
// (<= 0 means GOMAXPROCS) and blocks until every started call has
// returned. The first error cancels the derived context, stops feeding
// new indices, and is returned; a cancelled parent context likewise
// stops the loop and surfaces context.Canceled. Because results are
// addressed by index, callers get deterministic output ordering for
// free regardless of the worker count.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	return forEachWorker(ctx, n, workers, func(ctx context.Context, _, i int) error {
		return fn(ctx, i)
	})
}

// effectiveWorkers resolves the worker-pool size ForEach/forEachWorker
// will actually spawn for n jobs.
func effectiveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// forEachWorker is ForEach with the worker's pool index passed to fn,
// so instrumentation can attribute work to individual workers.
func forEachWorker(ctx context.Context, n, workers int, fn func(ctx context.Context, worker, i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	workers = effectiveWorkers(workers, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			cancel()
		})
	}
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					continue // drain without running
				}
				if err := fn(ctx, worker, i); err != nil {
					fail(err)
				}
			}
		}(w)
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// Cancellation may have arrived between jobs, with no fn observing it.
	return ctx.Err()
}
