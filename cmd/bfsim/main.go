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
//	bfsim -p bf-neural -t SPEC03 -window 50000   # MPKI per 50000-branch window
//	bfsim -p oh-snap,bf-neural -t all -csv       # engine CSV output
//	bfsim -p bf-neural -t all -json -workers 4   # engine JSON output
//	bfsim -p bf-tage-10 -t SERV3 -offenders 10   # top mispredicted PCs
//	bfsim -p bf-tage-10 -t SERV1 -explain        # cause taxonomy + attribution
//	bfsim -p bf-tage-10 -t SPEC00 -explain -warmup 0  # provider histogram (Fig. 12)
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
//	bfsim -p all-suite... -metrics-addr :8080    # /metrics, /debug/pprof
//	bfsim ... -journal run.jsonl                 # bfbp.journal.v1 event log
//	bfsim ... -heartbeat 10s                     # periodic stderr progress line
//	bfsim ... -probe-state                       # table/state X-ray: occupancy metrics,
//	                                             # tablestats journal events, counter tracks
//	bfsim ... -trace-out run.trace.json          # bfbp.trace.v1 span timeline (Perfetto)
//
// With -window, every closed window is journaled and drawn on the
// -trace-out timeline's mpki counter track (see DESIGN.md §6):
//
//	bfsim -p bf-tage-10 -t SERV1,FP1 -n 1000000 -window 100000 \
//	      -journal run.jsonl -trace-out run.trace.json
//	journal summary run.jsonl
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
		explain   = flag.Bool("explain", false, "collect decision provenance (cause taxonomy, component/bank attribution)")
		storage   = flag.Bool("storage", false, "print the storage budget and exit")
		list      = flag.Bool("list", false, "list available predictor names")

		checkpointPath  = flag.String("checkpoint", "", "write a bfbp.state.v1 predictor snapshot here at run end")
		checkpointEvery = flag.Uint64("checkpoint-every", 0, "with -checkpoint, also snapshot every N branches (overwrites the file)")
		resumePath      = flag.String("resume", "", "load a bfbp.state.v1 predictor snapshot before the run")
		skip            = flag.Int("skip", 0, "discard the first N trace records (fast-forward a resumed trace)")

		probeState      = flag.Bool("probe-state", false, "sample predictor table/state internals periodically (occupancy metrics, tablestats journal events, Perfetto counter tracks)")
		probeStateEvery = flag.Uint64("probe-state-every", 65536, "with -probe-state, sample every N branches (quantised to batch boundaries)")
	)
	telCfg := telemetry.Flags(flag.CommandLine)
	prof.Flags(flag.CommandLine)
	flag.Parse()
	// A count below its floor is a usage error, not a silent default.
	for _, f := range []struct {
		name     string
		val, min int
	}{
		{"n", *branches, 1}, {"warmup", *warmup, -1}, {"delay", *delay, 0},
		{"skip", *skip, 0}, {"offenders", *offenders, 0}, {"workers", *workers, 0},
	} {
		if f.val < f.min {
			usageError("-%s %d is below %d", f.name, f.val, f.min)
		}
	}
	if *probeState && *probeStateEvery == 0 {
		usageError("-probe-state-every 0 never samples; give a period of at least 1")
	}
	// A period flag without the flag it times would run without effect.
	flag.Visit(func(f *flag.Flag) {
		switch {
		case f.Name == "probe-state-every" && !*probeState:
			usageError("-probe-state-every needs -probe-state")
		case f.Name == "checkpoint-every" && *checkpointPath == "":
			usageError("-checkpoint-every needs -checkpoint <path>")
		}
	})

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

	sources, length, err := traceSources(*traceFile, *traceName, *branches)
	if err != nil {
		fatal(err)
	}
	if *skip >= length {
		usageError("-skip %d leaves no branch of the %d-branch trace", *skip, length)
	}
	warm := uint64(length / 10)
	if *warmup >= 0 {
		warm = uint64(*warmup)
	}
	if warm >= uint64(length-*skip) {
		usageError("a warm-up of %d leaves no branch of the %d after -skip %d to measure", warm, length-*skip, *skip)
	}

	if *checkpointPath != "" || *resumePath != "" || *skip > 0 {
		if len(specs) != 1 || len(sources) != 1 {
			fatal(fmt.Errorf("-checkpoint/-resume/-skip need exactly one predictor and one trace"))
		}
		if *delay != 0 && *checkpointPath != "" {
			fatal(fmt.Errorf("-checkpoint requires -delay 0: snapshots must be quiescent"))
		}
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

	tel, err := telemetry.Start(*telCfg)
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
			Warmup:      warm,
			UpdateDelay: *delay,
			PerPC:       *offenders > 0,
			Window:      *window,
			Explain:     *explain,
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
		printText(results, len(sources) > 1, *offenders)
	}
}

// traceSources resolves the -f/-t flags into engine trace sources and
// the trace length: the record count of -f, or -n for -t.
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
		return []bfbp.TraceSource{tr.Source(file)}, len(tr), nil
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
	return out, branches, nil
}

func printText(results []bfbp.RunResult, showTrace bool, offenders int) {
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

// usageError reports a flag value that would run without effect and
// exits 2, as the flag package does for a malformed flag.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bfsim: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfsim:", err)
	os.Exit(1)
}
