package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bfbp"
	"bfbp/internal/trace"
)

// A workload is a closed loop: one pass runs every (predictor × trace)
// cell back to back, and the timed phase repeats passes. Trace lengths
// are a fraction of the ones the repository's tools use (DESIGN's suite
// lengths, the experiments -suite lengths, the ones the workloads were
// specified with), chosen so that a pass takes 4–8 s: a run then holds
// two to four passes to take the median of, and a traced round, several
// passes long, ends well within three minutes.
type workload struct {
	name   string
	preds  []string
	traces []string // nil selects all 40 suite traces
	long   int      // branches per SPEC trace
	short  int      // branches per FP/INT/MM/SERV trace
	delay  int      // Options.UpdateDelay
	replay bool     // cells replay BFT1 files that set-up encodes
	engine bool     // cells run on the Engine with telemetry sinks
}

var (
	bfCorePreds = []string{"bf-tage-10", "bf-neural", "bf-gehl", "isl-tage-15"}
	tablePreds  = []string{"bimodal", "gshare", "local", "tournament", "yags", "filter"}
	suitePreds  = []string{"oh-snap", "tage-15", "bf-neural", "bf-isl-tage-10"}
	// suiteTraces are half the suite: the odd SPEC traces and two or
	// three of each other family. Each seed makes some traces slower to
	// predict than others, and twenty short traces average that out
	// better than ten long ones.
	suiteTraces = []string{
		"SPEC01", "SPEC03", "SPEC05", "SPEC07", "SPEC09", "SPEC11", "SPEC13", "SPEC15", "SPEC17", "SPEC19",
		"FP2", "FP4", "INT1", "INT3", "INT5", "MM1", "MM3", "MM5", "SERV2", "SERV4",
	}
	replayTraces = []string{"SPEC11", "FP1", "INT4", "MM4", "SERV3"}
)

var workloads = []workload{
	// The fused batch path of the bias-free cores; the predictor is
	// about 97% of the time.
	{
		name:  "bf-cores",
		preds: bfCorePreds, traces: []string{"SPEC03", "SPEC07", "INT2", "MM2", "SERV1"},
		long: 250_000, short: 250_000,
	},
	// Cheap predictors over every trace: trace synthesis and the
	// RunContext loop carry most of the time.
	{
		name:  "tables-suite",
		preds: tablePreds,
		long:  1_000_000, short: 250_000,
	},
	// The same cores on their per-record path with updates in flight,
	// plus the harness delay ring and BFT1 decode.
	{
		name:  "replay-inflight",
		preds: bfCorePreds, traces: replayTraces,
		long: 400_000, short: 400_000, delay: 32, replay: true,
	},
	// experiments -suite with every telemetry sink: the only workload
	// where the worker pool and the observability fan-out work.
	{
		name:  "suite-observed",
		preds: suitePreds, traces: suiteTraces,
		long: 100_000, short: 37_500, engine: true,
	},
}

const (
	// engineWorkers is the Engine pool size. One worker keeps the
	// benchmark to one busy thread: on a host whose cores are shared with
	// other guests, a second worker measures the host's scheduler more
	// than the engine.
	engineWorkers = 1
	// probeStateEvery matches bfsim -probe-state's default period.
	probeStateEvery = 65536
)

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames(), ", "))
}

// source is one trace of a workload: a reseeded spec at a fixed length,
// streamed from the generator or, when path is set, replayed from the
// BFT1 file set-up wrote. It satisfies bfbp.TraceSource.
type source struct {
	spec bfbp.TraceSpec
	n    int
	path string
}

func (s *source) Name() string { return s.spec.Name }

func (s *source) Open() bfbp.TraceReader {
	if s.path == "" {
		return s.spec.Stream(s.n)
	}
	return openFile(s.path)
}

// cell is one (predictor, trace) run with its options.
type cell struct {
	pred bfbp.PredictorInfo
	src  *source
	opt  bfbp.Options
}

func (c cell) name() string { return c.pred.Name + "/" + c.src.Name() }

// check returns why counters cannot come from a correct run of c, or "".
func (c cell) check(got counters) string {
	switch {
	case got.Branches < uint64(c.src.n):
		return fmt.Sprintf("%d branches, trace has at least %d", got.Branches, c.src.n)
	case got.Mispredicts > got.Branches-c.opt.Warmup:
		return fmt.Sprintf("%d mispredicts in %d measured branches", got.Mispredicts, got.Branches-c.opt.Warmup)
	case got.Instructions < got.Branches-c.opt.Warmup:
		return fmt.Sprintf("%d instructions for %d measured branches", got.Instructions, got.Branches-c.opt.Warmup)
	}
	return ""
}

// counters are the simulated statistics of one cell; every run of the
// same code and seed must reproduce them exactly.
type counters struct {
	Branches, Mispredicts, Instructions uint64
}

func countersOf(st bfbp.Stats) counters {
	return counters{Branches: st.Branches, Mispredicts: st.Mispredicts, Instructions: st.Instructions}
}

// instance is a workload after set-up: resolved predictors, sources
// (and their files), cells in trace-major order, and started sinks.
type instance struct {
	w       *workload
	sources []*source
	cells   []cell
	dir     string
	sinks   *sinks
}

// setup resolves the workload's predictors, builds its sources (for a
// replay workload, encodes each trace to a BFT1 file under workDir) and,
// for an engine workload, starts the telemetry sinks.
func setup(w *workload, seed uint64, scale int, workDir string) (in *instance, err error) {
	in = &instance{w: w}
	defer func() {
		if err != nil {
			err = errors.Join(err, in.close())
			in = nil
		}
	}()
	preds := make([]bfbp.PredictorInfo, len(w.preds))
	for i, name := range w.preds {
		if preds[i], err = bfbp.PredictorByName(name); err != nil {
			return in, err
		}
		// Build one instance so a bad configuration fails here, before
		// anything is timed.
		preds[i].New()
	}
	names := w.traces
	if names == nil {
		names = bfbp.TraceNames()
	}
	if w.replay {
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return in, err
		}
		if in.dir, err = os.MkdirTemp(workDir, "replay-"); err != nil {
			return in, err
		}
	}
	for _, name := range names {
		spec, ok := bfbp.TraceByName(name)
		if !ok {
			return in, fmt.Errorf("unknown trace %q", name)
		}
		n := w.short
		if spec.Family == "SPEC" {
			n = w.long
		}
		src := &source{spec: spec.Reseed(seed), n: n / scale}
		if w.replay {
			src.path = filepath.Join(in.dir, name+".bft")
			if err := encodeFile(src.path, src.spec.Stream(src.n)); err != nil {
				return in, err
			}
		}
		in.sources = append(in.sources, src)
		opt := bfbp.Options{Warmup: uint64(src.n / 10), UpdateDelay: w.delay}
		if w.engine {
			// experiments -suite windows: 5% of the measured branches.
			opt.Window = (uint64(src.n) - opt.Warmup) / 20
			opt.ProbeStateEvery = probeStateEvery
		}
		for _, p := range preds {
			in.cells = append(in.cells, cell{pred: p, src: src, opt: opt})
		}
	}
	if w.engine {
		in.sinks = newSinks()
	}
	return in, nil
}

// encodeFile writes the records of r to a new BFT1 file at path.
func encodeFile(path string, r bfbp.TraceReader) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := encode(f, r); err != nil {
		f.Close()
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return f.Close()
}

// close stops the sinks and removes the replay files.
func (in *instance) close() error {
	var err error
	if in.sinks != nil {
		err = in.sinks.close()
	}
	if in.dir != "" {
		err = errors.Join(err, os.RemoveAll(in.dir))
	}
	return err
}

func (in *instance) cellNames() []string {
	names := make([]string, len(in.cells))
	for i, c := range in.cells {
		names[i] = c.name()
	}
	return names
}

// warmUp runs the first cell at a tenth of its length, untimed, so the
// pass after it starts with warm code and allocator caches.
func (in *instance) warmUp(ctx context.Context) {
	c := in.cells[0]
	r := c.src.Open()
	opt := c.opt
	opt.Warmup /= 10
	opt.Window /= 10
	// The result is discarded: a failing cell fails again, counted, in
	// the pass that follows.
	_, _ = bfbp.RunContext(ctx, c.pred.New(), trace.Limit(r, uint64(c.src.n/10)), opt)
	closeReader(r)
}

// passResult is one pass over every cell of a workload.
type passResult struct {
	wall   time.Duration
	cpu    time.Duration // timed passes: process CPU time of the cells
	ref    float64       // timed passes: cpu in reference seconds
	alloc  uint64        // heap bytes allocated during the pass
	counts []counters    // per cell
	errs   []error       // per cell
	busy   time.Duration // summed per-cell time
	tail   time.Duration // engine passes: first idle worker to the end
}

func (p passResult) branches() uint64 {
	var n uint64
	for _, c := range p.counts {
		n += c.Branches
	}
	return n
}

// opener returns the reader a cell runs over; a traced leg wraps it.
type opener func(c cell) bfbp.TraceReader

func plainOpen(c cell) bfbp.TraceReader { return c.src.Open() }

// pass runs every cell once, the way the workload runs them: one after
// another, or on the engine with sinks s.
func (in *instance) pass(ctx context.Context, open opener, s *sinks) passResult {
	if in.w.engine {
		return runEngine(ctx, in.cells, open, s)
	}
	p := passResult{counts: make([]counters, len(in.cells)), errs: make([]error, len(in.cells))}
	t0 := time.Now()
	for i, c := range in.cells {
		r := open(c)
		st, err := bfbp.RunContext(ctx, c.pred.New(), r, c.opt)
		closeReader(r)
		p.counts[i], p.errs[i] = countersOf(st), err
	}
	p.wall = time.Since(t0)
	p.busy = p.wall
	return p
}

// runEngine runs cells as one matrix on the Engine, attaching
// sinks s when it is not nil (and then sampling predictor state as
// bfsim -probe-state does).
func runEngine(ctx context.Context, cells []cell, open opener, s *sinks) passResult {
	jobs := make([]bfbp.Job, len(cells))
	for i, c := range cells {
		opt := c.opt
		if s != nil {
			opt.ProbeStateEvery = probeStateEvery
		}
		jobs[i] = bfbp.Job{
			Predictor: c.pred.Spec(),
			Source:    bfbp.FuncSource{Label: c.src.Name(), OpenFn: func() bfbp.TraceReader { return open(c) }},
			Options:   &opt,
		}
	}
	eng := bfbp.Engine{Workers: engineWorkers}
	if s != nil {
		eng.Metrics, eng.Journal, eng.Tracer = s.metrics, s.journal, s.tracer
	}
	// Progress events arrive serially, and Run returns only after every
	// worker has exited, so done needs no lock.
	var done []time.Time
	eng.Progress = func(bfbp.ProgressEvent) { done = append(done, time.Now()) }
	p := passResult{counts: make([]counters, len(cells)), errs: make([]error, len(cells))}
	t0 := time.Now()
	results, err := eng.Run(ctx, jobs)
	end := time.Now()
	p.wall = end.Sub(t0)
	if err != nil {
		for i := range p.errs {
			p.errs[i] = err
		}
		return p
	}
	for i, r := range results {
		p.counts[i] = countersOf(r.Stats)
		p.busy += r.Elapsed
	}
	// Once len(cells)-engineWorkers+1 cells are done the queue is empty
	// and the worker that finished last goes idle: the tail starts.
	if k := len(cells) - engineWorkers; k >= 0 && k < len(done) {
		p.tail = end.Sub(done[k])
	}
	return p
}
