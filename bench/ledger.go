package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"bfbp"
	"bfbp/internal/trace"
)

// The ledger splits a workload's time by layer, measured from outside
// the program. Per trace it runs
//
//	(a) the generator drained with no predictor, and the BFT1 codec
//	    round trip of the trace's records;
//	(b) the static-taken predictor over the materialised records: the
//	    harness alone;
//
// and per cell
//
//	(c) the cell's predictor over the same records, minus (b), and the
//	    predictor wrapped so every 64th Predict and Update is timed;
//	(d) the cell as the workload runs it, through a reader that times
//	    each ReadBatch call.
//
// Each round also runs the untraced pass (the reference for (d) and for
// every cell's counters) and the matrix on the engine without sinks (e)
// and with them (f). Predictors the ledger names but the workload does
// not run get (c) and the sampled leg on the workload's shortest trace.

// tally sums the time and branches of one kind of leg.
type tally struct {
	d time.Duration
	n uint64
}

func (t *tally) add(d time.Duration, n uint64) { t.d += d; t.n += n }

func (t tally) nsPer() float64 { return ratio(float64(t.d), float64(t.n)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// round holds one traced round's raw measurements.
type round struct {
	gen, enc, dec, harness tally
	codecBytes             uint64
	hb                     map[*source]float64 // leg (b) ns per branch
	pred                   map[string]*tally   // leg (c) net of (b)
	predict, update        map[string][]time.Duration
	dTime, dRead, dHarness time.Duration // leg (d): cell, reader and estimated harness time
	dWall, refWall         time.Duration
	gcCycles               uint64
	gcCPU                  float64
	e, f                   passResult
	sinks                  sinkCount
}

// ledger runs traced rounds until seconds have passed (at least one,
// and none expected to end far past the deadline) and returns the
// per-layer metrics, each the median over rounds.
func (in *instance) ledger(ctx context.Context, seconds time.Duration, log *spanLog, chk *checker) (map[string]float64, error) {
	deadline := time.Now().Add(seconds)
	var rounds []map[string]float64
	for k := 0; ; k++ {
		start := time.Now()
		r, err := in.round(ctx, k, log, chk)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r.metrics())
		if time.Now().Add(time.Since(start) / 2).After(deadline) {
			break
		}
	}
	out := map[string]float64{}
	for _, m := range perLayer {
		vals := make([]float64, len(rounds))
		for i, r := range rounds {
			vals[i] = r[m.name]
		}
		out[m.name] = median(vals)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	out["runtime.max_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return out, nil
}

func (in *instance) round(ctx context.Context, k int, log *spanLog, chk *checker) (*round, error) {
	r := &round{
		hb:      map[*source]float64{},
		pred:    map[string]*tally{},
		predict: map[string][]time.Duration{},
		update:  map[string][]time.Duration{},
	}
	root := log.start(nil, 0, "workload", fmt.Sprintf("%s round %d", in.w.name, k))
	defer root.end()

	runtime.GC()
	in.warmUp(ctx)
	var sinks0 sinkCount
	if in.sinks != nil {
		sinks0 = in.sinks.count()
	}
	rt0 := readRuntime()
	s := log.start(root, 0, "leg", "untraced pass")
	ref := in.pass(ctx, plainOpen, in.sinks)
	s.end("branches", ref.branches())
	rt1 := readRuntime()
	chk.pass(ref)
	r.refWall = ref.wall
	r.gcCycles = rt1.gcCycles - rt0.gcCycles
	r.gcCPU = rt1.gcCPU - rt0.gcCPU

	static, err := bfbp.PredictorByName("static-taken")
	if err != nil {
		return nil, err
	}
	var read atomic.Int64
	for _, src := range in.sources {
		ts := log.start(root, 0, "trace", src.Name())
		recs, err := r.traceLegs(ctx, log, ts, src, in.optionsOf(src), static)
		if err != nil {
			return nil, err
		}
		for i, c := range in.cells {
			if c.src == src {
				r.cellLegs(ctx, log, ts, c, recs, &read, contains(sampledPredictors, c.pred.Name), !in.w.engine,
					func(got counters, err error) { chk.observe(i, got, err) })
			}
		}
		if src == in.shortest() {
			if err := in.extraLegs(ctx, r, log, ts, src, recs, chk); err != nil {
				return nil, err
			}
		}
		ts.end()
	}

	if in.w.engine {
		// (d) for an engine workload: the normal run with fresh sinks,
		// its readers on borrowed lanes.
		s := log.start(root, 0, "leg", "d: engine pass")
		ds := newSinks()
		d := runEngine(ctx, in.cells, func(c cell) bfbp.TraceReader {
			tid, release := log.borrow()
			tr := newTimedReader(c.src.Open(), log, s, tid, &read)
			tr.release = release
			return tr
		}, ds)
		s.end()
		if err := ds.close(); err != nil {
			return nil, err
		}
		chk.pass(d)
		r.dWall, r.dTime = d.wall, d.busy
		for i, c := range in.cells {
			r.dHarness += time.Duration(r.hb[c.src] * float64(d.counts[i].Branches))
		}
	}
	r.dRead = time.Duration(read.Load())

	s = log.start(root, 0, "leg", "e: engine without sinks")
	r.e = runEngine(ctx, in.cells, plainOpen, nil)
	s.end()
	chk.pass(r.e)
	if in.w.engine {
		// The untraced pass already is the matrix on the engine with sinks.
		r.f, r.sinks = ref, in.sinks.count().sub(sinks0)
		return r, nil
	}
	fs := newSinks()
	s = log.start(root, 0, "leg", "f: engine with sinks")
	r.f = runEngine(ctx, in.cells, plainOpen, fs)
	s.end()
	if err := fs.close(); err != nil {
		return nil, err
	}
	chk.pass(r.f)
	r.sinks = fs.count()
	return r, nil
}

// shortest returns the workload's shortest source, the first of equals:
// the trace the extra legs run on.
func (in *instance) shortest() *source {
	short := in.sources[0]
	for _, src := range in.sources[1:] {
		if src.n < short.n {
			short = src
		}
	}
	return short
}

// optionsOf returns the run options of src's cells.
func (in *instance) optionsOf(src *source) bfbp.Options {
	for _, c := range in.cells {
		if c.src == src {
			return c.opt
		}
	}
	return bfbp.Options{}
}

// traceLegs runs leg (a), the codec round trip and leg (b) on src and
// returns its records, materialised.
func (r *round) traceLegs(ctx context.Context, log *spanLog, parent *span, src *source, opt bfbp.Options, static bfbp.PredictorInfo) (bfbp.Trace, error) {
	s := log.start(parent, 0, "leg", "a: generator")
	n, err := drain(src.spec.Stream(src.n))
	r.gen.add(s.end("branches", n), n)
	if err != nil {
		return nil, fmt.Errorf("%s: generator: %w", src.Name(), err)
	}

	rd := src.Open()
	recs, err := trace.Collect(rd)
	closeReader(rd)
	if err != nil {
		return nil, fmt.Errorf("%s: materialising: %w", src.Name(), err)
	}
	var buf bytes.Buffer
	s = log.start(parent, 0, "leg", "encode")
	_, err = encode(&buf, recs.Stream())
	r.enc.add(s.end("bytes", buf.Len()), uint64(len(recs)))
	if err != nil {
		return nil, fmt.Errorf("%s: encoding: %w", src.Name(), err)
	}
	r.codecBytes += uint64(buf.Len())
	s = log.start(parent, 0, "leg", "decode")
	n, err = drain(trace.NewFileReader(&buf))
	r.dec.add(s.end("branches", n), n)
	if err != nil {
		return nil, fmt.Errorf("%s: decoding: %w", src.Name(), err)
	}

	s = log.start(parent, 0, "leg", "b: harness")
	st, err := bfbp.RunContext(ctx, static.New(), recs.Stream(), opt)
	d := s.end("branches", st.Branches)
	if err != nil {
		return nil, fmt.Errorf("%s: harness leg: %w", src.Name(), err)
	}
	r.harness.add(d, st.Branches)
	r.hb[src] = ratio(float64(d), float64(st.Branches))
	return recs, nil
}

// cellLegs runs leg (c), the sampled leg when scalar is set, and leg (d)
// when withD is set on one cell. Every run's counters go to observe.
func (r *round) cellLegs(ctx context.Context, log *spanLog, parent *span, c cell, recs bfbp.Trace, read *atomic.Int64, scalar, withD bool, observe func(counters, error)) {
	cs := log.start(parent, 0, "cell", c.name())
	defer cs.end()
	name := c.pred.Name

	p := c.pred.New()
	s := log.start(cs, 0, "leg", "c: predictor")
	st, err := bfbp.RunContext(ctx, p, recs.Stream(), c.opt)
	d := s.end("branches", st.Branches)
	observe(countersOf(st), err)
	t := r.pred[name]
	if t == nil {
		t = &tally{}
		r.pred[name] = t
	}
	t.add(d-time.Duration(r.hb[c.src]*float64(st.Branches)), st.Branches)

	if scalar {
		sp := &sampledPredictor{Predictor: c.pred.New()}
		s := log.start(cs, 0, "leg", "c: sampled predict/update")
		st, err := bfbp.RunContext(ctx, sp, recs.Stream(), c.opt)
		s.end("samples", len(sp.predict)+len(sp.update))
		observe(countersOf(st), err)
		if contains(sampledPredictors, name) {
			r.predict[name] = append(r.predict[name], sp.predict...)
			r.update[name] = append(r.update[name], sp.update...)
		}
	}

	if withD {
		s := log.start(cs, 0, "leg", "d: cell")
		tr := newTimedReader(c.src.Open(), log, s, 0, read)
		st, err := bfbp.RunContext(ctx, c.pred.New(), tr, c.opt)
		closeReader(tr)
		d := s.end("branches", st.Branches)
		observe(countersOf(st), err)
		r.dTime += d
		r.dWall += d
		r.dHarness += time.Duration(r.hb[c.src] * float64(st.Branches))
	}
}

// extraLegs times the ledger's predictors that the workload does not
// run on src, so every workload reports every predictor. With no
// reference counters, each predictor's batch leg (c) and sampled
// (scalar) leg are checked against each other instead.
func (in *instance) extraLegs(ctx context.Context, r *round, log *spanLog, parent *span, src *source, recs bfbp.Trace, chk *checker) error {
	for _, name := range ledgerPredictors {
		if contains(in.w.preds, name) {
			continue
		}
		info, err := bfbp.PredictorByName(name)
		if err != nil {
			return err
		}
		c := cell{pred: info, src: src, opt: in.optionsOf(src)}
		var runs []counters
		var firstErr error
		r.cellLegs(ctx, log, parent, c, recs, nil, true, false, func(got counters, err error) {
			runs = append(runs, got)
			if firstErr == nil {
				firstErr = err
			}
		})
		chk.agree(c, runs[0], runs[1], firstErr)
	}
	return nil
}

// metrics turns the round's measurements into per-layer metrics.
func (r *round) metrics() map[string]float64 {
	fBranches := float64(r.f.branches())
	m := map[string]float64{
		"workload.ns_per_branch":       r.gen.nsPer(),
		"workload.share":               ratio(float64(r.dRead), float64(r.dTime)),
		"trace.encode_ns_per_branch":   r.enc.nsPer(),
		"trace.decode_ns_per_branch":   r.dec.nsPer(),
		"trace.file_bytes_per_branch":  ratio(float64(r.codecBytes), float64(r.enc.n)),
		"sim.harness_ns_per_branch":    r.harness.nsPer(),
		"sim.harness_share":            ratio(float64(r.dHarness), float64(r.dTime)),
		"engine.busy_s":                r.f.busy.Seconds(),
		"engine.utilization":           ratio(r.f.busy.Seconds(), r.f.wall.Seconds()*engineWorkers),
		"engine.tail_s":                r.f.tail.Seconds(),
		"obs.journal_bytes_per_branch": ratio(float64(r.sinks.journalBytes), fBranches),
		"obs.journal_events":           float64(r.sinks.journalEvents),
		"obs.trace_bytes_per_branch":   ratio(float64(r.sinks.traceBytes), fBranches),
		"obs.trace_events":             float64(r.sinks.traceEvents),
		"obs.overhead_pct":             100 * ratio(float64(r.f.wall-r.e.wall), float64(r.e.wall)),
		"runtime.gc_cycles":            float64(r.gcCycles),
		"runtime.gc_cpu_s":             r.gcCPU,
		"bench.trace_overhead_pct":     100 * ratio(float64(r.dWall-r.refWall), float64(r.refWall)),
	}
	for name, t := range r.pred {
		m[predictorLayer(name)+"."+name+".ns_per_branch"] = t.nsPer()
	}
	for name, ds := range r.predict {
		prefix := predictorLayer(name) + "." + name + "."
		us := r.update[name]
		m[prefix+"predict_ns_p50"] = quantileNS(ds, 0.50)
		m[prefix+"predict_ns_p99"] = quantileNS(ds, 0.99)
		m[prefix+"update_ns_p50"] = quantileNS(us, 0.50)
		m[prefix+"update_ns_p99"] = quantileNS(us, 0.99)
		m[prefix+"samples"] = float64(len(ds) + len(us))
	}
	return m
}

// quantileNS returns the nearest-rank q-quantile of ds in nanoseconds.
func quantileNS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i].Nanoseconds())
}

// runtimeReading is a read of the Go runtime's cumulative counters.
type runtimeReading struct {
	gcCycles   uint64
	gcCPU      float64
	allocBytes uint64
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeReading{gcCycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allocBytes: s[2].Value.Uint64()}
}
