package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"bfbp/internal/sim"
)

// tiny returns a configuration small enough for unit testing.
func tiny(traces ...string) Config {
	return Config{
		LongBranches:  60_000,
		ShortBranches: 40_000,
		TraceFilter:   traces,
	}
}

func TestFig2SmallRun(t *testing.T) {
	tab := Fig2(tiny("SPEC06", "SPEC18"))
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	hi, ok := tab.RowByLabel("SPEC06")
	if !ok {
		t.Fatal("SPEC06 row missing")
	}
	lo, _ := tab.RowByLabel("SPEC18")
	if hi.Vals[0] <= lo.Vals[0] {
		t.Errorf("SPEC06 biased%% (%.1f) should exceed SPEC18 (%.1f)", hi.Vals[0], lo.Vals[0])
	}
}

func TestFig8SmallRun(t *testing.T) {
	tab := Fig8(tiny("FP3"))
	if len(tab.Rows) != 2 { // trace + Avg.
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	if tab.Col("BF-Neural") < 0 || tab.Col("TAGE") < 0 || tab.Col("OH-SNAP") < 0 {
		t.Fatal("missing column")
	}
	for _, v := range tab.Rows[0].Vals {
		if v < 0 || v > 200 {
			t.Fatalf("implausible MPKI %v", v)
		}
	}
}

func TestFig9SmallRun(t *testing.T) {
	tab := Fig9(tiny("INT2"))
	if len(tab.Columns) != 4 {
		t.Fatalf("columns = %d, want 4", len(tab.Columns))
	}
	avg, ok := tab.RowByLabel("Avg.")
	if !ok {
		t.Fatal("Avg. row missing")
	}
	if len(avg.Vals) != 4 {
		t.Fatalf("avg vals = %d", len(avg.Vals))
	}
}

func TestFig12SmallRun(t *testing.T) {
	tab, err := Fig12(tiny(), "SPEC00")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 15 {
		t.Fatalf("rows = %d, want 15 tables", len(tab.Rows))
	}
	var sumT, sumB float64
	for _, r := range tab.Rows {
		sumT += r.Vals[0]
		sumB += r.Vals[1]
	}
	if sumT <= 0 || sumB <= 0 {
		t.Fatalf("histogram empty: tage %.1f bf %.1f", sumT, sumB)
	}
	// BF-TAGE has only 10 tables: rows 11-15 must be zero in its column.
	for i := 10; i < 15; i++ {
		if tab.Rows[i].Vals[1] != 0 {
			t.Errorf("bf-tage-10 shows hits in T%d", i+1)
		}
	}
}

func TestFig13SmallRun(t *testing.T) {
	cfg := tiny("SERV3")
	tab := Fig13(cfg)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tab.Rows))
	}
	if tab.Rows[0].Vals[0] <= 0 || tab.Rows[0].Vals[1] <= 0 {
		t.Fatal("zero MPKI values")
	}
}

func TestTable1Budget(t *testing.T) {
	b := Table1()
	bytes := b.TotalBytes()
	// Paper: 51,100 bytes. Allow 10%.
	if bytes < 46_000 || bytes > 56_000 {
		t.Fatalf("BF-TAGE-10 budget = %d bytes, want ~51100", bytes)
	}
}

func TestRenderAndCSV(t *testing.T) {
	tab := Table{
		Title:   "test",
		Columns: []string{"a", "b"},
		Rows:    []Row{{Label: "x", Vals: []float64{1, 2}}},
	}
	tab.Mean()
	out := tab.Render()
	if !strings.Contains(out, "Avg.") || !strings.Contains(out, "test") {
		t.Fatalf("render missing parts:\n%s", out)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "trace,a,b\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "x,1.0000,2.0000") {
		t.Fatalf("csv row wrong: %q", csv)
	}
}

func TestWeightedCenter(t *testing.T) {
	tab := Table{
		Columns: []string{"c"},
		Rows: []Row{
			{Label: "T1", Vals: []float64{0}},
			{Label: "T2", Vals: []float64{10}},
			{Label: "T3", Vals: []float64{0}},
		},
	}
	if c := WeightedCenter(tab, 0); c != 2 {
		t.Fatalf("center = %v, want 2", c)
	}
	empty := Table{Columns: []string{"c"}, Rows: []Row{{Label: "T1", Vals: []float64{0}}}}
	if c := WeightedCenter(empty, 0); c != 0 {
		t.Fatalf("empty center = %v, want 0", c)
	}
}

func TestTraceFilter(t *testing.T) {
	cfg := tiny("SPEC00", "NOPE")
	if got := len(cfg.traces()); got != 1 {
		t.Fatalf("filter kept %d traces, want 1", got)
	}
	all := Config{LongBranches: 1, ShortBranches: 1}
	if got := len(all.traces()); got != 40 {
		t.Fatalf("unfiltered = %d traces, want 40", got)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	serial := tiny("SPEC00", "FP2", "MM4")
	serial.Workers = 1
	parallel := tiny("SPEC00", "FP2", "MM4")
	parallel.Workers = 4
	a := Fig2(serial)
	b := Fig2(parallel)
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i].Label != b.Rows[i].Label {
			t.Fatalf("row order differs at %d: %s vs %s", i, a.Rows[i].Label, b.Rows[i].Label)
		}
		for j := range a.Rows[i].Vals {
			if a.Rows[i].Vals[j] != b.Rows[i].Vals[j] {
				t.Fatalf("value differs at %d/%d", i, j)
			}
		}
	}
}

func TestSuiteDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		cfg := tiny("SPEC00", "FP2", "SERV1")
		cfg.Workers = workers
		results, err := Suite(context.Background(), cfg, SuitePredictors())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var csv, js bytes.Buffer
		if err := sim.WriteCSV(&csv, results); err != nil {
			t.Fatal(err)
		}
		if err := sim.WriteJSON(&js, results); err != nil {
			t.Fatal(err)
		}
		return csv.String() + js.String()
	}
	if serial, parallel := run(1), run(8); serial != parallel {
		t.Fatal("suite emission differs between workers=1 and workers=8")
	}
}

func TestSuiteWindowedMetrics(t *testing.T) {
	cfg := tiny("MM1")
	results, err := Suite(context.Background(), cfg, SuitePredictors()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	st := results[0].Stats
	if st.Window == 0 || len(st.Windows) < 15 {
		t.Fatalf("suite run missing window series: window=%d entries=%d", st.Window, len(st.Windows))
	}
}

func TestSuiteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Suite(ctx, tiny("SPEC00"), SuitePredictors()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestVarianceSmallRun(t *testing.T) {
	tab, err := Variance(tiny(), "FP5", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 predictors", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r.Vals[0] <= 0 {
			t.Fatalf("%s mean MPKI %v", r.Label, r.Vals[0])
		}
		if r.Vals[1] < 0 {
			t.Fatalf("%s negative stddev", r.Label)
		}
	}
}

// Bad input is an error, never a panic or a silent clamp.
func TestFig12AndVarianceRejectBadInput(t *testing.T) {
	if _, err := Fig12(tiny(), "NOPE"); err == nil {
		t.Error("Fig12 accepted an unknown trace")
	}
	if _, err := Variance(tiny(), "NOPE", 2); err == nil {
		t.Error("Variance accepted an unknown trace")
	}
	if _, err := Variance(tiny(), "FP5", 1); err == nil {
		t.Error("Variance accepted a single seed")
	}
}
