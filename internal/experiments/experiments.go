// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) on the synthetic trace suite: Fig. 2 (biased-branch
// fractions), Fig. 8 (64KB MPKI comparison), Fig. 9 (BF-Neural ablation),
// Fig. 10 (table-count sweep), Fig. 11 (relative improvement over a
// 10-table TAGE), Fig. 12 (provider-table histograms), and Table I
// (storage budget). The cmd/experiments binary and the repository's
// benchmark harness both drive this package.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"bfbp/internal/bst"
	"bfbp/internal/core/bfneural"
	"bfbp/internal/core/bftage"
	"bfbp/internal/predictor/ohsnap"
	"bfbp/internal/predictor/perceptron"
	"bfbp/internal/predictor/tage"
	"bfbp/internal/sim"
	"bfbp/internal/telemetry"
	"bfbp/internal/workload"
)

// Config scales the experiment suite. The paper uses 15-30M-branch long
// traces and 3-5M short ones; the defaults here are laptop-scale
// stand-ins (see DESIGN.md §1). Warmup is always 10% of each trace.
type Config struct {
	// LongBranches is the dynamic branch count for SPEC traces.
	LongBranches int
	// ShortBranches is the count for FP/INT/MM/SERV traces.
	ShortBranches int
	// TraceFilter restricts the suite to the named traces (nil = all).
	TraceFilter []string
	// Workers bounds per-trace parallelism (0 = min(GOMAXPROCS, 8)).
	Workers int
	// Log receives progress lines (nil silences them).
	Log io.Writer
	// Telemetry, when non-nil, is attached to every figure and suite
	// engine run (metrics, journal, tracer; see telemetry.T.Attach).
	Telemetry *telemetry.T
}

// DefaultConfig is the laptop-scale configuration used by the benchmarks.
func DefaultConfig() Config {
	return Config{LongBranches: 400_000, ShortBranches: 200_000}
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format, args...)
	}
}

func (c Config) branchesFor(s workload.Spec) int {
	if s.Family == workload.SPEC {
		return c.LongBranches
	}
	return c.ShortBranches
}

func (c Config) traces() []workload.Spec {
	all := workload.Traces()
	if len(c.TraceFilter) == 0 {
		return all
	}
	want := map[string]bool{}
	for _, n := range c.TraceFilter {
		want[n] = true
	}
	var out []workload.Spec
	for _, s := range all {
		if want[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// Table is a rendered experiment result: a labelled grid of float values.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
}

// Row is one labelled line of a Table.
type Row struct {
	Label string
	Vals  []float64
}

// Mean appends an arithmetic-mean row labelled "Avg." (the paper reports
// arithmetic means over the 40 traces).
func (t *Table) Mean() {
	if len(t.Rows) == 0 {
		return
	}
	sums := make([]float64, len(t.Columns))
	for _, r := range t.Rows {
		for i, v := range r.Vals {
			sums[i] += v
		}
	}
	for i := range sums {
		sums[i] /= float64(len(t.Rows))
	}
	t.Rows = append(t.Rows, Row{Label: "Avg.", Vals: sums})
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-10s", "trace")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %16s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s", r.Label)
		for _, v := range r.Vals {
			fmt.Fprintf(&b, " %16.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV formats the table as comma-separated values.
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString("trace")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, ",%s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.Label)
		for _, v := range r.Vals {
			fmt.Fprintf(&b, ",%.4f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Col returns the index of the named column, or -1.
func (t Table) Col(name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// RowByLabel returns the row with the given label.
func (t Table) RowByLabel(label string) (Row, bool) {
	for _, r := range t.Rows {
		if r.Label == label {
			return r, true
		}
	}
	return Row{}, false
}

// runOne evaluates a fresh predictor built by mk over a fresh reader
// from the source.
func runOne(src sim.TraceSource, warmup uint64, mk func() sim.Predictor) float64 {
	st, err := sim.Run(mk(), src.Open(), sim.Options{Warmup: warmup})
	if err != nil {
		panic(fmt.Sprintf("experiments: run failed: %v", err))
	}
	return st.MPKI()
}

// Fig2 reproduces the biased-branch fractions of the paper's Fig. 2:
// the percentage of the dynamic branch stream contributed by completely
// biased branches, per trace.
func Fig2(cfg Config) Table {
	t := Table{
		Title:   "Figure 2: Biased branches (% of dynamic branches from completely biased sites)",
		Columns: []string{"biased%", "static-biased%", "sites"},
	}
	t.Rows = forEach(cfg, func(s workload.Spec) Row {
		n := cfg.branchesFor(s)
		cfg.logf("fig2: %s (%d branches)\n", s.Name, n)
		st, err := workload.ProfileBias(s.Stream(n))
		if err != nil {
			panic(err)
		}
		return Row{Label: s.Name, Vals: []float64{
			100 * st.DynamicFraction(),
			100 * st.StaticFraction(),
			float64(st.StaticSites),
		}}
	})
	return t
}

// Fig8 reproduces the 64KB MPKI comparison of Fig. 8: OH-SNAP vs TAGE
// (ISL-TAGE without SC/IUM, with loop predictor) vs BF-Neural, per trace
// plus the arithmetic mean.
func Fig8(cfg Config) Table {
	t := Table{
		Title:   "Figure 8: MPKI comparison at 64KB (lower is better)",
		Columns: []string{"OH-SNAP", "TAGE", "BF-Neural"},
	}
	t.Rows = matrix(cfg, "fig8", []namedPred{
		{"OH-SNAP", func() sim.Predictor { return ohsnap.New(ohsnap.Default64KB()) }},
		{"TAGE", func() sim.Predictor { return tage.New(tage.ConventionalBare(15)) }},
		{"BF-Neural", func() sim.Predictor { return bfneural.New(bfneural.Default64KB()) }},
	})
	t.Mean()
	return t
}

// Fig9 reproduces the optimization-contribution ablation of Fig. 9:
// conventional perceptron (h=72, no fhist), then BF-Neural with
// progressively more filtering.
func Fig9(cfg Config) Table {
	t := Table{
		Title:   "Figure 9: contribution of optimizations (MPKI)",
		Columns: []string{"Perceptron", "BF(fhist)", "BF(ghist+fhist)", "BF(ghist+RS+fhist)"},
	}
	t.Rows = matrix(cfg, "fig9", []namedPred{
		{"Perceptron", func() sim.Predictor { return perceptron.New(perceptron.Default64KB()) }},
		{"BF(fhist)", func() sim.Predictor { return bfneural.New(bfneural.Ablation(bfneural.ModeFilterWeights)) }},
		{"BF(ghist+fhist)", func() sim.Predictor { return bfneural.New(bfneural.Ablation(bfneural.ModeBiasFreeGHR)) }},
		{"BF(ghist+RS+fhist)", func() sim.Predictor { return bfneural.New(bfneural.Ablation(bfneural.ModeFull)) }},
	})
	t.Mean()
	return t
}

// Fig10 reproduces the table-count sweep of Fig. 10: average MPKI of
// ISL-TAGE vs BF-ISL-TAGE for 4 to 10 tagged tables.
func Fig10(cfg Config) Table {
	t := Table{
		Title:   "Figure 10: avg MPKI vs number of tagged tables",
		Columns: []string{"ISL-TAGE", "BF-ISL-TAGE"},
	}
	for n := 4; n <= 10; n++ {
		nn := n
		rows := matrix(cfg, fmt.Sprintf("fig10[%d-tables]", nn), []namedPred{
			{"ISL-TAGE", func() sim.Predictor { return tage.New(tage.Conventional(nn)) }},
			{"BF-ISL-TAGE", func() sim.Predictor { return bftage.New(bftage.Conventional(nn)) }},
		})
		var sumT, sumB float64
		for _, r := range rows {
			sumT += r.Vals[0]
			sumB += r.Vals[1]
		}
		count := float64(len(rows))
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("%d-tables", n),
			Vals:  []float64{sumT / count, sumB / count},
		})
	}
	return t
}

// Fig11 reproduces the relative-improvement chart of Fig. 11: per trace,
// the MPKI improvement of a 15-table TAGE and of a 10-table BF-TAGE
// relative to a 10-table conventional TAGE (positive = better).
func Fig11(cfg Config) Table {
	t := Table{
		Title:   "Figure 11: relative improvement in MPKI vs 10-table conventional TAGE (%)",
		Columns: []string{"TAGE-15", "BF-TAGE-10"},
	}
	raw := matrix(cfg, "fig11", []namedPred{
		{"base", func() sim.Predictor { return tage.New(tage.Conventional(10)) }},
		{"TAGE-15", func() sim.Predictor { return tage.New(tage.Conventional(15)) }},
		{"BF-TAGE-10", func() sim.Predictor { return bftage.New(bftage.Conventional(10)) }},
	})
	for _, r := range raw {
		base := r.Vals[0]
		imp := func(v float64) float64 {
			if base == 0 {
				return 0
			}
			return 100 * (base - v) / base
		}
		t.Rows = append(t.Rows, Row{Label: r.Label, Vals: []float64{imp(r.Vals[1]), imp(r.Vals[2])}})
	}
	return t
}

// Fig12Traces are the seven traces the paper's Fig. 12 plots.
var Fig12Traces = []string{"SPEC00", "SPEC02", "SPEC03", "SPEC06", "SPEC09", "SPEC15", "SPEC17"}

// Fig12 reproduces the provider-table histograms of Fig. 12 for one
// trace: the percentage of predictions provided by each tagged table for
// a 15-table conventional TAGE and a 10-table BF-TAGE. Row i is table
// i+1; the base predictor's share is excluded, as in the paper.
func Fig12(cfg Config, traceName string) Table {
	s, ok := workload.ByName(traceName)
	if !ok {
		panic("experiments: unknown trace " + traceName)
	}
	n := cfg.branchesFor(s)
	cfg.logf("fig12: %s\n", traceName)

	// Two engine cells over the same streaming source; the provider
	// histograms come from the retained instances' state samples.
	results := runEngine(cfg, "fig12", sim.Matrix(
		[]sim.TraceSource{s.Source(n)},
		[]sim.PredictorSpec{
			{Name: "tage-15", New: func() sim.Predictor { return tage.New(tage.Conventional(15)) }},
			{Name: "bf-tage-10", New: func() sim.Predictor { return bftage.New(bftage.Conventional(10)) }},
		},
		sim.Options{},
	))
	shares := func(res sim.RunResult) []float64 {
		h := res.Instance.(sim.StateProbe).ProbeState().ProviderHits()
		var total uint64
		for _, v := range h {
			total += v
		}
		out := make([]float64, 15)
		for i := 1; i < len(h) && i <= 15; i++ {
			if total > 0 {
				out[i-1] = 100 * float64(h[i]) / float64(total)
			}
		}
		return out
	}
	a := shares(results[0])
	b := shares(results[1])

	t := Table{
		Title:   fmt.Sprintf("Figure 12 (%s): %% of branch hits per tagged table", traceName),
		Columns: []string{"TAGE-15", "BF-TAGE-10"},
	}
	for i := 0; i < 15; i++ {
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("T%d", i+1),
			Vals:  []float64{a[i], b[i]},
		})
	}
	return t
}

// Table1 reproduces the storage-budget accounting of Table I for the
// 10-table BF-TAGE (the paper totals 51,100 bytes).
func Table1() sim.Breakdown {
	return bftage.New(bftage.ConventionalBare(10)).Storage()
}

// Fig13 is the §VI-D extension experiment: dynamic bias detection versus
// static profile-assisted classification for the 10-table BF-TAGE on the
// traces the paper says suffer from detection transients (SERV3, FP1,
// MM5) plus two controls. The paper reports the static profile improving
// SERV3 from 2.62 to 2.44 MPKI.
func Fig13(cfg Config) Table {
	t := Table{
		Title:   "Extension (§VI-D): BF-TAGE-10 with dynamic vs profile-assisted bias classification (MPKI)",
		Columns: []string{"dynamic-BST", "static-oracle"},
	}
	names := []string{"SERV3", "FP1", "MM5", "SPEC00", "INT2"}
	if len(cfg.TraceFilter) > 0 {
		names = cfg.TraceFilter
	}
	rows := make([]Row, len(names))
	err := sim.ForEach(context.Background(), len(names), cfg.workers(), func(_ context.Context, i int) error {
		name := names[i]
		s, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("experiments: unknown trace %s", name)
		}
		n := cfg.branchesFor(s)
		cfg.logf("fig13: %s\n", name)
		src := s.Source(n)
		warm := uint64(n / 10)
		dyn := runOne(src, warm, func() sim.Predictor { return bftage.New(bftage.Conventional(10)) })
		// Profiling pass for the static oracle streams the trace again.
		oracle := bst.NewOracle()
		r := src.Open()
		for {
			rec, rerr := r.Read()
			if errors.Is(rerr, io.EOF) {
				break
			}
			if rerr != nil {
				return rerr
			}
			oracle.Observe(rec.PC, rec.Taken)
		}
		orc := runOne(src, warm, func() sim.Predictor {
			c := bftage.Conventional(10)
			c.Name = "bf-isl-tage-10-oracle"
			c.Classifier = oracle
			return bftage.New(c)
		})
		rows[i] = Row{Label: name, Vals: []float64{dyn, orc}}
		return nil
	})
	if err != nil {
		panic(err)
	}
	t.Rows = rows
	return t
}

// Variance runs the headline predictors over `seeds` reseeded variants of
// one trace and reports each predictor's mean MPKI and standard deviation
// — the error bars the paper's single-trace numbers implicitly carry.
func Variance(cfg Config, traceName string, seeds int) Table {
	s, ok := workload.ByName(traceName)
	if !ok {
		panic("experiments: unknown trace " + traceName)
	}
	if seeds < 2 {
		seeds = 2
	}
	n := cfg.branchesFor(s)
	preds := []sim.PredictorSpec{
		{Name: "OH-SNAP", New: func() sim.Predictor { return ohsnap.New(ohsnap.Default64KB()) }},
		{Name: "TAGE-15", New: func() sim.Predictor { return tage.New(tage.ConventionalBare(15)) }},
		{Name: "BF-Neural", New: func() sim.Predictor { return bfneural.New(bfneural.Default64KB()) }},
		{Name: "BF-ISL-TAGE-10", New: func() sim.Predictor { return bftage.New(bftage.Conventional(10)) }},
	}
	t := Table{
		Title:   fmt.Sprintf("Seed variance on %s (%d variants, %d branches)", traceName, seeds, n),
		Columns: []string{"mean-MPKI", "stddev"},
	}
	// One engine cell per (reseeded variant × predictor).
	sources := make([]sim.TraceSource, seeds)
	for v := 0; v < seeds; v++ {
		sources[v] = s.Reseed(uint64(v)).Source(n)
	}
	results := runEngine(cfg, "variance", sim.Matrix(sources, preds, sim.Options{Warmup: uint64(n / 10)}))
	for pi, p := range preds {
		vals := make([]float64, seeds)
		for v := 0; v < seeds; v++ {
			vals[v] = results[v*len(preds)+pi].Stats.MPKI()
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		mean := sum / float64(seeds)
		var ss float64
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		std := math.Sqrt(ss / float64(seeds-1))
		t.Rows = append(t.Rows, Row{Label: p.Name, Vals: []float64{mean, std}})
	}
	return t
}

// WeightedCenter returns the hit-weighted mean table number of a Fig. 12
// histogram column — the summary statistic for "shift toward
// shorter-history tables".
func WeightedCenter(t Table, col int) float64 {
	var num, den float64
	for i, r := range t.Rows {
		num += float64(i+1) * r.Vals[col]
		den += r.Vals[col]
	}
	if den == 0 {
		return 0
	}
	return num / den
}
