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
//	experiments -suite -metrics-addr :8080           # live /metrics + /debug/vars + pprof
//	experiments -suite -journal run.jsonl -heartbeat 10s
//	experiments -suite -trace-out run.trace.json     # Perfetto span timeline
//
// The -long/-short flags set the per-trace dynamic branch counts (the
// paper used 15-30M and 3-5M; defaults here are laptop-scale). Suite
// rows are deterministic: byte-identical output for any -workers value.
// Telemetry (-metrics-addr, -journal, -heartbeat, -trace-out,
// -runtime-trace) observes any run — figures or suite — without
// perturbing its output.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"bfbp"
	"bfbp/internal/experiments"
	"bfbp/internal/prof"
	"bfbp/internal/sim"
	"bfbp/internal/telemetry"
)

func main() {
	var (
		figs          = flag.String("fig", "", "comma-separated figure numbers to regenerate (2,8,9,10,11,12,13)")
		table         = flag.Int("table", 0, "table number to regenerate (1)")
		all           = flag.Bool("all", false, "regenerate every figure and table")
		suite         = flag.Bool("suite", false, "run the full (predictor x trace) suite matrix")
		predNames     = flag.String("preds", "", "registry predictor names for -suite (default: headline set)")
		csv           = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut       = flag.Bool("json", false, "emit -suite results as JSON (includes window series)")
		long          = flag.Int("long", 800_000, "dynamic branches per SPEC trace")
		short         = flag.Int("short", 300_000, "dynamic branches per short trace")
		traces        = flag.String("traces", "", "comma-separated trace subset (default: all 40)")
		workers       = flag.Int("workers", 0, "parallel engine workers (0 = min(GOMAXPROCS, 8))")
		quiet         = flag.Bool("q", false, "suppress progress logging")
		varianceTrace = flag.String("variance", "", "run a seed-variance study on the named trace")
		seeds         = flag.Int("seeds", 5, "seed variants for -variance")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof on this address")
		journalPath = flag.String("journal", "", "write bfbp.journal.v1 JSONL events to this file")
		heartbeat   = flag.Duration("heartbeat", 0, "print an engine-progress line to stderr at this period (0 = off)")
		traceOut    = flag.String("trace-out", "", "write a bfbp.trace.v1 span timeline (Perfetto/chrome://tracing JSON) to this file")
		rtraceOut   = flag.String("runtime-trace", "", "capture a Go runtime/trace (with bridged spans) to this file")
	)
	prof.Flags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	cfg := experiments.Config{
		LongBranches:  *long,
		ShortBranches: *short,
		Workers:       *workers,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	if *traces != "" {
		cfg.TraceFilter = strings.Split(*traces, ",")
	}

	tel, err := telemetry.Start(telemetry.Config{
		MetricsAddr:      *metricsAddr,
		JournalPath:      *journalPath,
		Heartbeat:        *heartbeat,
		TracePath:        *traceOut,
		RuntimeTracePath: *rtraceOut,
	})
	if err != nil {
		fatal(err)
	}
	defer tel.Close()
	cfg.Telemetry = tel

	if *suite {
		runSuite(cfg, *predNames, *jsonOut)
		return
	}

	want := map[string]bool{}
	if *all {
		for _, f := range []string{"2", "8", "9", "10", "11", "12", "13"} {
			want[f] = true
		}
		*table = 1
	}
	for _, f := range strings.Split(*figs, ",") {
		if f = strings.TrimSpace(f); f != "" {
			want[f] = true
		}
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
			emit(experiments.Fig12(cfg, name))
		}
	}
	if want["13"] {
		emit(experiments.Fig13(cfg))
	}
	if *varianceTrace != "" {
		emit(experiments.Variance(cfg, *varianceTrace, *seeds))
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
