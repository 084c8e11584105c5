// Command bfsim runs branch predictors over traces and reports MPKI,
// mimicking the CBP evaluation flow. Multiple predictors and traces run
// as a matrix on the suite engine: parallel workers, streaming synthetic
// traces, Ctrl-C cancellation.
//
// Usage:
//
//	bfsim -p bf-neural -t SPEC03                 # synthetic trace by name
//	bfsim -p bf-tage-10,isl-tage-15 -t SPEC03    # compare predictors
//	bfsim -p bf-neural -t SPEC03,SERV1,MM2       # several traces
//	bfsim -p tage-10 -f trace.bft                # trace from a file
//	bfsim -p bf-neural -t SPEC03 -n 1000000      # trace length
//	bfsim -p bf-neural -t SPEC03 -window 50000   # phase-resolved MPKI
//	bfsim -p oh-snap,bf-neural -t all -csv       # engine CSV output
//	bfsim -p bf-neural -t all -json -workers 4   # engine JSON output
//	bfsim -p bf-tage-10 -t SERV3 -offenders 10   # top mispredicted PCs
//	bfsim -p bf-tage-10 -t SPEC00 -tablehits     # provider histogram
//	bfsim -p bf-tage-10 -t SERV1 -explain        # cause taxonomy + attribution
//	bfsim -p bf-neural -storage                  # storage budget only
//	bfsim -list                                  # available predictors
//
// Predictor state snapshots (bfbp.state.v1) checkpoint and resume runs:
//
//	bfsim -p bf-neural -t SPEC03 -checkpoint s.state             # save at run end
//	bfsim ... -checkpoint s.state -checkpoint-every 100000       # also periodically
//	bfsim -p bf-neural -t SPEC03 -resume s.state -skip 100000    # continue from it
//
// Long suite runs can be observed live:
//
//	bfsim -p all-suite... -metrics-addr :8080    # /metrics, /debug/vars, /debug/pprof
//	bfsim ... -journal run.jsonl                 # bfbp.journal.v1 event log
//	bfsim ... -heartbeat 10s                     # periodic stderr progress + runtime line
//	bfsim ... -probe-state                       # table/state X-ray: occupancy metrics,
//	                                             # tablestats journal events, counter tracks
//	bfsim ... -trace-out run.trace.json          # bfbp.trace.v1 span timeline (Perfetto)
//	bfsim ... -runtime-trace run.rtrace          # Go runtime/trace with bridged spans
//
// Phase and drift observability (see DESIGN.md §6): -drift runs
// streaming change-point detectors over every windowed (trace,
// predictor) MPKI series, emitting `drift` journal events, Perfetto
// counter tracks (with alarm instants) on the -trace-out timeline, and
// bfbp_drift_* metrics; -flight-dump keeps a ring of recent journal
// lines and snapshots it (bfbp.flight.v1) on every alarm and on
// SIGQUIT; -endurance splices reseeded synthetic segments into one
// long phase-shifting run:
//
//	bfsim -p bf-tage-10 -t SERV1,FP1,MM1 -n 1000000 -endurance 20 \
//	      -drift -journal run.jsonl -trace-out run.trace.json \
//	      -flight-dump flight.json            # 60M-branch mixed-phase run
//
// Run-to-completion profiles land in files for `go tool pprof`:
//
//	bfsim ... -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Predictor names come from the bfbp registry (use -list for the full
// set with descriptions); -t accepts trace names, comma lists, or "all"
// for the 40-trace suite.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"bfbp"
	"bfbp/internal/analysis"
	"bfbp/internal/prof"
	"bfbp/internal/sim"
	"bfbp/internal/telemetry"
	"bfbp/internal/trace"
)

func main() {
	var (
		preds     = flag.String("p", "bf-neural", "comma-separated registry predictor names")
		traceName = flag.String("t", "", `synthetic trace name(s), comma-separated, or "all"`)
		traceFile = flag.String("f", "", "trace file in BFT1 format")
		branches  = flag.Int("n", 500_000, "dynamic branches for synthetic traces")
		warmup    = flag.Int("warmup", -1, "warmup branches excluded from stats (-1 = 10%)")
		delay     = flag.Int("delay", 0, "update delay in branches (pipeline model)")
		window    = flag.Uint64("window", 0, "record an MPKI series per N post-warmup branches")
		workers   = flag.Int("workers", 0, "parallel engine workers (0 = GOMAXPROCS)")
		csvOut    = flag.Bool("csv", false, "emit engine results as CSV")
		jsonOut   = flag.Bool("json", false, "emit engine results (and window series) as JSON")
		offenders = flag.Int("offenders", 0, "print the top-N mispredicted PCs")
		tableHits = flag.Bool("tablehits", false, "print the provider-table histogram")
		explain   = flag.Bool("explain", false, "collect decision provenance (cause taxonomy, component/bank attribution)")
		explainNN = flag.Uint64("explain-sample", 0, "confidence-margin sample period for -explain (power of two; 0 = 64)")
		storage   = flag.Bool("storage", false, "print the storage budget and exit")
		list      = flag.Bool("list", false, "list available predictor names")

		checkpointPath  = flag.String("checkpoint", "", "write a bfbp.state.v1 predictor snapshot here at run end")
		checkpointEvery = flag.Uint64("checkpoint-every", 0, "with -checkpoint, also snapshot every N branches (overwrites the file)")
		resumePath      = flag.String("resume", "", "load a bfbp.state.v1 predictor snapshot before the run")
		skip            = flag.Int("skip", 0, "discard the first N trace records (fast-forward a resumed trace)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof on this address")
		journalPath = flag.String("journal", "", "write bfbp.journal.v1 JSONL events to this file")
		heartbeat   = flag.Duration("heartbeat", 0, "print an engine-progress line to stderr at this period (0 = off)")
		traceOut    = flag.String("trace-out", "", "write a bfbp.trace.v1 span timeline (Perfetto/chrome://tracing JSON) to this file")
		rtraceOut   = flag.String("runtime-trace", "", "capture a Go runtime/trace (with bridged spans) to this file")

		probeState      = flag.Bool("probe-state", false, "sample predictor table/state internals periodically (occupancy metrics, tablestats journal events, Perfetto counter tracks)")
		probeStateEvery = flag.Uint64("probe-state-every", 65536, "with -probe-state, sample every N branches (quantised to batch boundaries)")

		endurance  = flag.Int("endurance", 0, "splice the -t traces into one continuous run of N laps, -n branches per segment, reseeded per lap (phase-shifting long-run mode)")
		drift      = flag.Bool("drift", false, "run streaming change-point detectors over windowed MPKI (drift journal events, counter tracks, alarm metrics)")
		flightDump = flag.String("flight-dump", "", "write a bfbp.flight.v1 flight-recorder snapshot to this file on every drift alarm and on SIGQUIT (implies -drift)")
	)
	prof.Flags(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, info := range bfbp.Predictors() {
			fmt.Printf("%-20s %-62s [%s]\n", info.Name, info.Description,
				strings.Join(info.Capabilities().Names(), " "))
		}
		return
	}

	infos, err := bfbp.SelectPredictors(*preds)
	if err != nil {
		fatal(err)
	}
	specs := make([]bfbp.PredictorSpec, len(infos))
	for i, info := range infos {
		specs[i] = info.Spec()
	}

	if *storage {
		for _, spec := range specs {
			p := spec.New()
			if caps := bfbp.Capabilities(p); caps.Storage != nil {
				fmt.Print(caps.Storage.Storage().String())
			} else {
				fmt.Printf("%s: no storage accounting\n", p.Name())
			}
		}
		return
	}

	sources, defaultWarm, err := traceSources(*traceFile, *traceName, *branches)
	if err != nil {
		fatal(err)
	}
	if *endurance > 0 {
		if *traceFile != "" {
			fatal(fmt.Errorf("-endurance needs synthetic -t traces, not -f"))
		}
		sources, err = enduranceSources(*traceName, *endurance, *branches)
		if err != nil {
			fatal(err)
		}
		// Phase detection needs a windowed series; default to ten
		// windows per segment so every splice point is visible.
		if *window == 0 {
			*window = uint64(*branches / 10)
			if *window == 0 {
				*window = 1
			}
		}
	}

	if *checkpointPath != "" || *resumePath != "" || *skip > 0 {
		if len(specs) != 1 || len(sources) != 1 {
			fatal(fmt.Errorf("-checkpoint/-resume/-skip need exactly one predictor and one trace"))
		}
		if *delay != 0 && *checkpointPath != "" {
			fatal(fmt.Errorf("-checkpoint requires -delay 0: snapshots must be quiescent"))
		}
	}
	if *checkpointEvery > 0 && *checkpointPath == "" {
		fatal(fmt.Errorf("-checkpoint-every needs -checkpoint <path>"))
	}
	if *resumePath != "" {
		// Validate the file and predictor support up front, then rebuild
		// the spec so every fresh instance starts from the snapshot.
		if err := loadSnapshot(specs[0].New(), *resumePath); err != nil {
			fatal(err)
		}
		orig, path := specs[0].New, *resumePath
		specs[0].New = func() bfbp.Predictor {
			p := orig()
			if err := loadSnapshot(p, path); err != nil {
				fatal(err)
			}
			return p
		}
	}
	if *skip > 0 {
		src, n := sources[0], *skip
		sources[0] = bfbp.FuncSource{Label: src.Name(), OpenFn: func() bfbp.TraceReader {
			return trace.Skip(src.Open(), n)
		}}
	}

	warm := uint64(defaultWarm)
	if *warmup >= 0 {
		warm = uint64(*warmup)
	}
	tel, err := telemetry.Start(telemetry.Config{
		MetricsAddr:      *metricsAddr,
		JournalPath:      *journalPath,
		Heartbeat:        *heartbeat,
		TracePath:        *traceOut,
		RuntimeTracePath: *rtraceOut,
		Drift:            *drift,
		FlightPath:       *flightDump,
	})
	if err != nil {
		fatal(err)
	}
	defer tel.Close()

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	eng := bfbp.Engine{
		Workers: *workers,
		Options: bfbp.Options{
			Warmup:       warm,
			UpdateDelay:  *delay,
			PerPC:        *offenders > 0,
			Window:       *window,
			Explain:      *explain,
			ExplainEvery: *explainNN,
		},
	}
	tel.Attach(&eng)
	if *probeState {
		// Must land before the Matrix call below: every job shares this
		// Options snapshot. The engine injects the default sink (metrics
		// + journal + counter tracks) for any predictor with StateProbe.
		eng.Options.ProbeStateEvery = *probeStateEvery
	}
	if *checkpointEvery > 0 {
		path, tname, pname := *checkpointPath, sources[0].Name(), specs[0].Name
		jr := tel.RunJournal()
		eng.Options.CheckpointEvery = *checkpointEvery
		eng.Options.CheckpointFn = func(p bfbp.Predictor, branches uint64) error {
			n, err := saveSnapshot(p, path)
			if err != nil {
				return err
			}
			ev := sim.Checkpoint{Trace: tname, Predictor: pname, Path: path, Branch: branches, Bytes: n}
			jr.Emit(ev.Kind(), ev)
			return nil
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	results, err := eng.Run(ctx, bfbp.Matrix(sources, specs, eng.Options))
	if err != nil {
		// Seal the trace/journal before exiting so a cancelled run's
		// partial timeline still loads cleanly (fatal skips defers).
		tel.Close()
		fatal(err)
	}
	if *checkpointPath != "" {
		n, err := saveSnapshot(results[0].Instance, *checkpointPath)
		if err != nil {
			tel.Close()
			fatal(err)
		}
		ev := sim.Checkpoint{Trace: sources[0].Name(), Predictor: specs[0].Name,
			Path: *checkpointPath, Branch: results[0].Stats.Branches, Bytes: n}
		tel.RunJournal().Emit(ev.Kind(), ev)
		fmt.Fprintf(os.Stderr, "bfsim: checkpoint %s (%d bytes, branch %d)\n",
			*checkpointPath, n, results[0].Stats.Branches)
	}
	if err := tel.Close(); err != nil {
		fatal(err)
	}

	switch {
	case *csvOut:
		if err := bfbp.WriteCSV(os.Stdout, results); err != nil {
			fatal(err)
		}
	case *jsonOut:
		if err := bfbp.WriteJSON(os.Stdout, results); err != nil {
			fatal(err)
		}
	default:
		printText(results, len(sources) > 1, *offenders, *tableHits)
	}
}

// traceSources resolves the -f/-t flags into engine trace sources and
// the default warmup (10% of the trace length).
func traceSources(file, names string, branches int) ([]bfbp.TraceSource, int, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		tr, err := trace.Collect(trace.NewFileReader(f))
		if err != nil {
			return nil, 0, err
		}
		return []bfbp.TraceSource{tr.Source(file)}, len(tr) / 10, nil
	}
	if names == "" {
		return nil, 0, fmt.Errorf("need -t <trace> or -f <file>")
	}
	want := strings.Split(names, ",")
	if names == "all" {
		want = bfbp.TraceNames()
	}
	var out []bfbp.TraceSource
	for _, name := range want {
		spec, ok := bfbp.TraceByName(strings.TrimSpace(name))
		if !ok {
			return nil, 0, fmt.Errorf("unknown trace %q (known: %s...)", name, strings.Join(bfbp.TraceNames()[:5], ", "))
		}
		out = append(out, spec.Source(branches))
	}
	return out, branches / 10, nil
}

// enduranceSources splices the named synthetic traces into one
// continuous source: laps round-robin passes over the trace list, one
// segment of branches records each, every lap reseeded so no segment
// repeats byte-for-byte. Segments are materialised lazily as the read
// cursor reaches them, so a 50M-branch endurance run holds one open
// segment at a time. The trace-family changes at every splice point
// are exactly the MPKI phase shifts the drift layer detects.
func enduranceSources(names string, laps, branches int) ([]bfbp.TraceSource, error) {
	if names == "" {
		return nil, fmt.Errorf("-endurance needs -t <traces>")
	}
	want := strings.Split(names, ",")
	if names == "all" {
		want = bfbp.TraceNames()
	}
	specs := make([]bfbp.TraceSpec, 0, len(want))
	for _, name := range want {
		spec, ok := bfbp.TraceByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown trace %q", name)
		}
		specs = append(specs, spec)
	}
	label := fmt.Sprintf("endurance(%s x%d)", names, laps)
	total := laps * len(specs)
	src := bfbp.FuncSource{Label: label, OpenFn: func() bfbp.TraceReader {
		i := 0
		return trace.ConcatFunc(func() trace.Reader {
			if i >= total {
				return nil
			}
			spec := specs[i%len(specs)].Reseed(uint64(i / len(specs)))
			i++
			return spec.Stream(branches)
		})
	}}
	return []bfbp.TraceSource{src}, nil
}

func printText(results []bfbp.RunResult, showTrace bool, offenders int, tableHits bool) {
	if showTrace {
		fmt.Printf("%-10s ", "trace")
	}
	fmt.Printf("%-18s %10s %12s %10s\n", "predictor", "MPKI", "mispredicts", "accuracy")
	for _, r := range results {
		if showTrace {
			fmt.Printf("%-10s ", r.Trace)
		}
		fmt.Printf("%-18s %10.3f %12d %9.2f%%\n", r.Predictor, r.Stats.MPKI(), r.Stats.Mispredicts, 100*r.Stats.Accuracy())
		if r.Stats.Window > 0 {
			fmt.Printf("    window MPKI (per %d branches):", r.Stats.Window)
			for _, w := range r.Stats.Windows {
				fmt.Printf(" %.2f", w.MPKI())
			}
			fmt.Println()
		}
		if offenders > 0 {
			fmt.Print(indent(analysis.TopOffendersReport(r.Stats, nil, offenders)))
		}
		if pv := r.Stats.Provenance; pv != nil {
			fmt.Print(indent(analysis.CauseBreakdownReport(r.Predictor, pv)))
			fmt.Print(indent(analysis.ComponentReport(pv)))
			if banks := analysis.BankUtilizationReport(pv); banks != "" {
				fmt.Print(indent(banks))
			}
		}
		var hits []uint64
		if sp := bfbp.Capabilities(r.Instance).StateProbe; tableHits && sp != nil {
			hits = sp.ProbeState().ProviderHits()
		}
		if hits != nil {
			var total uint64
			for _, h := range hits {
				total += h
			}
			fmt.Printf("    provider histogram (T0 = base):\n")
			for i, h := range hits {
				if total > 0 {
					fmt.Printf("      T%-2d %8d (%.1f%%)\n", i, h, 100*float64(h)/float64(total))
				}
			}
		}
	}
}

// indent prefixes every non-empty line of a report for nesting under a
// result row.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = "    " + l
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// saveSnapshot serialises p into a bfbp.state.v1 file at path. The
// whole snapshot is built in memory first so a failed save never
// leaves a truncated file behind.
func saveSnapshot(p bfbp.Predictor, path string) (int, error) {
	snap := bfbp.Capabilities(p).Snapshot
	if snap == nil {
		return 0, fmt.Errorf("%T does not support snapshots", p)
	}
	var buf bytes.Buffer
	if err := snap.SaveState(&buf); err != nil {
		return 0, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

// loadSnapshot restores p from a bfbp.state.v1 file at path.
func loadSnapshot(p bfbp.Predictor, path string) error {
	snap := bfbp.Capabilities(p).Snapshot
	if snap == nil {
		return fmt.Errorf("%T does not support snapshots", p)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return snap.LoadState(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfsim:", err)
	os.Exit(1)
}
