// Command bench is the repository's layered simulator benchmark. One
// run takes one workload — a fixed batch of (predictor × trace) cells,
// repeated as back-to-back passes for the requested time — and prints
// every end-to-end metric by name with its unit. A traced run (-trace 1)
// instead runs the per-layer ledger, prints every per-layer metric and
// writes its spans as Chrome trace-event JSON for Perfetto. Every cell's
// counters are checked against golden values and across runs; a failed
// cell makes the exit code non-zero.
//
// From the repository root:
//
//	bash bench/run.sh --workload bf-cores --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload bf-cores --seed 1 --seconds 20 --trace 1 --spans spans.json
//
// bench/README.md describes the workloads, the metrics and how to
// compare two commits.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bfbp"
)

const (
	// gomaxprocs pins the scheduler to the 2-core machine the
	// benchmark was calibrated on, whatever the host reports.
	gomaxprocs = 2
	// An untraced run sets up at least setupRepeats times and for at
	// least setupTime, and setup_s is the median of their times: most
	// workloads set up in about a millisecond, and one such set-up is too
	// noisy to compare.
	setupRepeats = 11
	setupTime    = time.Second
	// workDir holds replay files and default span files, relative to the
	// directory the benchmark runs in.
	workDir = ".bench_build"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	spans    string
	workDir  string
	scale    int // divides every trace length; 1 outside tests
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.String("seed", "", "seed every trace is reseeded with (a whole number)")
	seconds := fs.Float64("seconds", 20, "how long the timed passes (or traced rounds) run")
	traced := fs.Int("trace", 0, "1 runs the per-layer ledger instead of the timed passes")
	spans := fs.String("spans", "", "span file of a traced run (default "+workDir+"/<workload>.spans.json)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	cfg := config{workload: *name, spans: *spans, workDir: workDir, scale: 1}
	if _, err := findWorkload(cfg.workload); err != nil {
		return cfg, err
	}
	if *seed == "" {
		return cfg, errors.New("-seed is required")
	}
	var err error
	if cfg.seed, err = strconv.ParseUint(*seed, 10, 64); err != nil {
		return cfg, fmt.Errorf("-seed %q is not a whole number", *seed)
	}
	if !(*seconds > 0 && *seconds <= 3600) {
		return cfg, fmt.Errorf("-seconds %v is not in (0, 3600]", *seconds)
	}
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	switch *traced {
	case 0:
	case 1:
		cfg.traced = true
	default:
		return cfg, fmt.Errorf("-trace %d is neither 0 nor 1", *traced)
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(cfg.workDir, cfg.workload+".spans.json")
	}
	return cfg, nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	rep, err := measure(ctx, cfg)
	if err != nil {
		return err
	}
	return rep.write(stdout, stderr)
}

// report is what one run found.
type report struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Traced     bool      `json:"traced"`
	Verified   bool      `json:"verified"`
	Passes     int       `json:"passes"`
	PassRates  []float64 `json:"pass_branches_per_s,omitempty"`
	PassCPU    []float64 `json:"pass_branches_per_cpu_s,omitempty"`
	PassRef    []float64 `json:"pass_branches_per_ref_s,omitempty"`
	SetupCPU   []float64 `json:"setup_runs_cpu_s,omitempty"`
	Spans      string    `json:"spans,omitempty"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`

	counts  []counters // each cell's counters from its first run
	chk     *checker
	metrics map[string]float64
}

func measure(ctx context.Context, cfg config) (rep *report, err error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	var spanFile *os.File
	if cfg.traced {
		// Open the span file first, so a bad path fails before any work.
		if err := os.MkdirAll(filepath.Dir(cfg.spans), 0o755); err != nil {
			return nil, err
		}
		if spanFile, err = os.Create(cfg.spans); err != nil {
			return nil, err
		}
		defer spanFile.Close()
	}
	prev := runtime.GOMAXPROCS(gomaxprocs)
	defer runtime.GOMAXPROCS(prev)

	repeats, minTime := setupRepeats, setupTime
	if cfg.traced {
		repeats, minTime = 1, 0
	}
	in, setups, setupRef, err := setupRepeated(w, cfg, repeats, minTime)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, in.close()) }()

	var golden []counters
	if cfg.scale == 1 {
		if golden, err = goldenCounters(w.name, cfg.seed, in.cellNames()); err != nil {
			return nil, err
		}
	}
	chk := newChecker(in.cells, golden)
	rep = &report{
		Workload: w.name, Seed: cfg.seed, Traced: cfg.traced, Verified: golden != nil,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		chk: chk,
	}
	if cfg.traced {
		log := newSpanLog()
		if rep.metrics, err = in.ledger(ctx, cfg.seconds, log, chk); err != nil {
			return nil, err
		}
		bw := bufio.NewWriter(spanFile)
		if err := log.write(bw); err != nil {
			return nil, err
		}
		if err := bw.Flush(); err != nil {
			return nil, err
		}
		if err := spanFile.Close(); err != nil {
			return nil, err
		}
		rep.Spans = cfg.spans
	} else {
		passes := in.timed(ctx, cfg.seconds, chk)
		rep.metrics = endToEndMetrics(passes, setupRef)
		rep.Passes = len(passes)
		for _, p := range passes {
			n := float64(p.branches())
			rep.PassRates = append(rep.PassRates, ratio(n, p.wall.Seconds()))
			rep.PassCPU = append(rep.PassCPU, ratio(n, p.cpu.Seconds()))
			rep.PassRef = append(rep.PassRef, ratio(n, p.ref))
		}
		for _, d := range setups {
			rep.SetupCPU = append(rep.SetupCPU, d.Seconds())
		}
	}
	rep.counts = chk.first
	return rep, nil
}

// setupRepeated sets the workload up at least n times and until minTime
// has passed, with a reference sample before each set-up. It keeps the
// last instance and returns every set-up's CPU time and their median in
// reference seconds.
func setupRepeated(w *workload, cfg config, n int, minTime time.Duration) (*instance, []time.Duration, float64, error) {
	var in *instance
	var ds []time.Duration
	var cal calibration
	begin := time.Now()
	for i := 0; i < n || time.Since(begin) < minTime; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, nil, 0, err
			}
		}
		runtime.GC()
		cal.sample()
		start := cpuTime()
		var err error
		if in, err = setup(w, cfg.seed, cfg.scale, cfg.workDir); err != nil {
			return nil, nil, 0, err
		}
		ds = append(ds, cpuTime()-start)
	}
	return in, ds, cal.refSeconds(medianDuration(ds)), nil
}

// cpuTime returns the CPU time the process has used, user and system,
// summed over its threads. The timed metrics start from it instead of
// wall time: on a host whose cores are shared with other guests, the
// wall time of the same work moves with the time the hypervisor gives
// those guests (steal), and CPU time leaves that out.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs passes until seconds have passed (at least one, and none
// expected to end far past the deadline). Before each pass the heap is
// collected and the first cell warms up, both untimed. A reference
// sample runs before each cell and after the last; its CPU time is not
// the pass's.
func (in *instance) timed(ctx context.Context, seconds time.Duration, chk *checker) []passResult {
	deadline := time.Now().Add(seconds)
	var passes []passResult
	for {
		runtime.GC()
		in.warmUp(ctx)
		cal := &calibration{}
		open := func(c cell) bfbp.TraceReader {
			cal.sample()
			return c.src.Open()
		}
		before, cpu0 := readRuntime().allocBytes, cpuTime()
		p := in.pass(ctx, open, in.sinks)
		cal.sample()
		p.cpu = cpuTime() - cpu0 - cal.cpu
		p.alloc = readRuntime().allocBytes - before
		p.ref = cal.refSeconds(p.cpu)
		chk.pass(p)
		passes = append(passes, p)
		if time.Now().Add(p.wall / 2).After(deadline) {
			return passes
		}
	}
}

// endToEndMetrics reduces the passes of an untraced run to medians.
func endToEndMetrics(passes []passResult, setupRef float64) map[string]float64 {
	var rates, allocs []float64
	for _, p := range passes {
		n := float64(p.branches())
		rates = append(rates, ratio(n, p.ref))
		allocs = append(allocs, ratio(float64(p.alloc), n))
	}
	var mis, instr float64
	for _, c := range passes[0].counts {
		mis += float64(c.Mispredicts)
		instr += float64(c.Instructions)
	}
	return map[string]float64{
		"branches_per_ref_s":     median(rates),
		"mpki":                   ratio(1000*mis, instr),
		"alloc_bytes_per_branch": median(allocs),
		"setup_s":                setupRef,
	}
}

func medianDuration(ds []time.Duration) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(median(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the run's facts and then the result line on stdout, and
// a readable summary with any failed cells on stderr. It returns an
// error when a cell failed.
func (rep *report) write(stdout, stderr io.Writer) error {
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	res := result{
		Correct:   rep.chk.failed == 0 && rep.chk.attempted > 0,
		Attempted: rep.chk.attempted,
		Failed:    rep.chk.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range defs {
		v := rep.metrics[m.name]
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
		fmt.Fprintf(stderr, "%-42s %16.6g %s\n", m.name, v, m.unit)
	}
	if !rep.Verified {
		fmt.Fprintf(stderr, "seed %d has no golden counters: cells were checked across runs only (verified: false)\n", rep.Seed)
	}
	for i, p := range rep.chk.problems {
		if i == 20 {
			fmt.Fprintf(stderr, "... and %d more\n", len(rep.chk.problems)-i)
			break
		}
		fmt.Fprintln(stderr, "FAIL", p)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"bench": rep}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d cell runs failed", res.Failed, res.Attempted)
	}
	return nil
}
