// Command experiments regenerates the tables and figures of the paper's
// evaluation section (§VI) on the synthetic trace suite, and runs full
// (predictor × trace) suite sweeps on the parallel evaluation engine.
//
// Usage:
//
//	experiments -fig 8                 # one figure
//	experiments -fig 2,8,9,10,11,12    # several
//	experiments -table 1               # Table I storage budget
//	experiments -all                   # everything
//	experiments -fig 8 -csv            # CSV output
//	experiments -fig 8 -traces SPEC00,SPEC03
//	experiments -fig 8 -long 2000000 -short 500000   # full-scale traces
//	experiments -fig 8 -workers 16                   # engine parallelism
//	experiments -suite                               # full matrix, CSV rows
//	experiments -suite -json                         # + windowed MPKI series
//	experiments -suite -preds oh-snap,bf-neural      # registry predictor set
//	experiments -suite -metrics-addr :8080           # live /metrics + pprof
//	experiments -suite -journal run.jsonl -heartbeat 10s
//	experiments -suite -trace-out run.trace.json     # Perfetto span timeline
//
// The -long/-short flags set the per-trace dynamic branch counts (the
// paper used 15-30M and 3-5M; defaults here are laptop-scale). Suite
// rows are deterministic: byte-identical output for any -workers value.
// Telemetry (-metrics-addr, -journal, -heartbeat, -trace-out) observes
// any run — figures or suite — without perturbing its output.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"

	"bfbp"
	"bfbp/internal/experiments"
	"bfbp/internal/prof"
	"bfbp/internal/sim"
	"bfbp/internal/telemetry"
	"bfbp/internal/workload"
)

func main() {
	var (
		figs          = flag.String("fig", "", "comma-separated figure numbers to regenerate (2,8,9,10,11,12,13)")
		table         = flag.Int("table", 0, "table number to regenerate (1; 0 = none)")
		all           = flag.Bool("all", false, "regenerate every figure and table")
		suite         = flag.Bool("suite", false, "run the full (predictor x trace) suite matrix")
		predNames     = flag.String("preds", "", "registry predictor names for -suite (default: headline set)")
		csv           = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut       = flag.Bool("json", false, "emit -suite results as JSON (includes window series)")
		long          = flag.Int("long", 800_000, "dynamic branches per SPEC trace (0 = the family's default length)")
		short         = flag.Int("short", 300_000, "dynamic branches per short trace (0 = the family's default length)")
		traces        = flag.String("traces", "", "comma-separated trace subset (default: all 40)")
		workers       = flag.Int("workers", 0, "parallel engine workers (0 = min(GOMAXPROCS, 8))")
		quiet         = flag.Bool("q", false, "suppress progress logging")
		varianceTrace = flag.String("variance", "", "run a seed-variance study on the named trace")
		seeds         = flag.Int("seeds", 5, "seed variants for -variance (>= 2)")
	)
	telCfg := telemetry.Flags(flag.CommandLine)
	prof.Flags(flag.CommandLine)
	flag.Parse()
	// Bad input is a usage error, not a panic, an empty table or a
	// silent default.
	for _, f := range []struct {
		name     string
		val, min int
	}{
		{"long", *long, 0}, {"short", *short, 0}, {"workers", *workers, 0}, {"seeds", *seeds, 2},
	} {
		if f.val < f.min {
			usage("-%s %d is below %d", f.name, f.val, f.min)
		}
	}
	if *table != 0 && *table != 1 {
		usage("-table %d: only Table 1 exists", *table)
	}
	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		if !slices.Contains(figures, f) {
			usage("-fig %s: want one of %s", f, strings.Join(figures, ","))
		}
		want[f] = true
	}
	var traceFilter []string
	if *traces != "" {
		traceFilter = strings.Split(*traces, ",")
	}
	for _, name := range append(slices.Clip(traceFilter), *varianceTrace) {
		if _, ok := workload.ByName(name); name != "" && !ok {
			usage("unknown trace %q", name)
		}
	}

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	cfg := experiments.Config{
		LongBranches:  *long,
		ShortBranches: *short,
		Workers:       *workers,
		TraceFilter:   traceFilter,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}

	tel, err := telemetry.Start(*telCfg)
	if err != nil {
		fatal(err)
	}
	defer tel.Close()
	cfg.Telemetry = tel

	if *suite {
		runSuite(cfg, *predNames, *jsonOut)
		return
	}

	if *all {
		for _, f := range figures {
			want[f] = true
		}
		*table = 1
	}
	if len(want) == 0 && *table == 0 && *varianceTrace == "" {
		flag.Usage()
		os.Exit(2)
	}

	emit := func(t experiments.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}

	if want["2"] {
		emit(experiments.Fig2(cfg))
	}
	if want["8"] {
		emit(experiments.Fig8(cfg))
	}
	if want["9"] {
		emit(experiments.Fig9(cfg))
	}
	if want["10"] {
		emit(experiments.Fig10(cfg))
	}
	if want["11"] {
		emit(experiments.Fig11(cfg))
	}
	if want["12"] {
		names := experiments.Fig12Traces
		if len(cfg.TraceFilter) > 0 {
			names = cfg.TraceFilter
		}
		for _, name := range names {
			t, err := experiments.Fig12(cfg, name)
			if err != nil {
				fatal(err)
			}
			emit(t)
		}
	}
	if want["13"] {
		emit(experiments.Fig13(cfg))
	}
	if *varianceTrace != "" {
		t, err := experiments.Variance(cfg, *varianceTrace, *seeds)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	if *table == 1 {
		fmt.Println("Table I: storage budget of the 10-table BF-TAGE")
		fmt.Print(experiments.Table1().String())
		fmt.Printf("(paper total: 51100 bytes)\n\n")
	}
}

// runSuite executes the full suite matrix on the engine and emits the
// shared CSV/JSON result format. Ctrl-C cancels the sweep cleanly.
func runSuite(cfg experiments.Config, predNames string, jsonOut bool) {
	preds := experiments.SuitePredictors()
	if predNames != "" {
		infos, err := bfbp.SelectPredictors(predNames)
		if err != nil {
			fatal(err)
		}
		preds = preds[:0]
		for _, info := range infos {
			preds = append(preds, info.Spec())
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	results, err := experiments.Suite(ctx, cfg, preds)
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		err = sim.WriteJSON(os.Stdout, results)
	} else {
		err = sim.WriteCSV(os.Stdout, results)
	}
	if err != nil {
		fatal(err)
	}
}

// figures are the -fig values the command regenerates.
var figures = []string{"2", "8", "9", "10", "11", "12", "13"}

// usage reports a bad flag value and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
