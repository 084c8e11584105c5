package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"bfbp"
	"bfbp/internal/trace"
)

// testScale divides every trace length in tests, so each workload runs
// at 1/100 of its benchmark size.
const testScale = 100

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/counters.json from full-scale passes")

// goldenSeeds are the seeds testdata/counters.json covers.
var goldenSeeds = []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}

// The timing reader must keep RunContext on its batched read path.
var _ trace.BatchReader = (*timedReader)(nil)

func testConfig(t *testing.T, workload string, traced bool) config {
	t.Helper()
	return config{
		workload: workload, seed: 3, seconds: time.Nanosecond, traced: traced,
		spans: filepath.Join(t.TempDir(), "spans.json"), workDir: t.TempDir(), scale: testScale,
	}
}

// runReport measures cfg and returns the report with its printed result.
func runReport(t *testing.T, cfg config) (*report, result) {
	t.Helper()
	rep, err := measure(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	var out, errOut bytes.Buffer
	if err := rep.write(&out, &errOut); err != nil {
		t.Fatalf("%s: %v\n%s", cfg.workload, err, errOut.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("%s: last line %q: %v", cfg.workload, lines[len(lines)-1], err)
	}
	return rep, res
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func metricNames(ms []metric) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.name
	}
	sort.Strings(names)
	return names
}

// TestWorkloads runs every workload twice untraced and once traced. The
// counters must repeat exactly, the traced legs must reproduce them
// (the checker compares every leg with the untraced pass), and each run
// must print exactly the metrics BENCHMARK.json names for its mode.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first, res := runReport(t, testConfig(t, w.name, false))
			if got, want := sortedKeys(res.Metrics), metricNames(endToEnd); !slices.Equal(got, want) {
				t.Errorf("untraced metrics %v, want %v", got, want)
			}
			for name, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
				}
			}
			second, _ := runReport(t, testConfig(t, w.name, false))
			if !slices.Equal(first.counts, second.counts) {
				t.Errorf("counters differ between two runs")
			}

			cfg := testConfig(t, w.name, true)
			traced, res := runReport(t, cfg)
			if got, want := sortedKeys(res.Metrics), metricNames(perLayer); !slices.Equal(got, want) {
				t.Errorf("traced metrics %v, want %v", got, want)
			}
			if !slices.Equal(first.counts, traced.counts) {
				t.Errorf("traced counters differ from untraced ones")
			}
			if res.Attempted <= len(first.counts) {
				t.Errorf("traced run attempted %d cell runs, want more than %d", res.Attempted, len(first.counts))
			}
			checkSpans(t, cfg.spans)
		})
	}
}

// checkSpans checks that a span file is Chrome trace-event JSON with
// every leg and read-batch spans, each span inside its parent.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("span file: %v", err)
	}
	byID := map[float64]traceEvent{}
	names := map[string]int{}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" {
			byID[ev.Args["id"].(float64)] = ev
			names[ev.Name]++
		}
	}
	for _, leg := range []string{"untraced pass", "a: generator", "encode", "decode", "b: harness",
		"c: predictor", "c: sampled predict/update", "read batch", "e: engine without sinks"} {
		if names[leg] == 0 {
			t.Errorf("no %q span in %v", leg, names)
		}
	}
	for _, ev := range byID {
		if ev.Dur < 0 || ev.TS < 0 {
			t.Errorf("span %q has ts %v dur %v", ev.Name, ev.TS, ev.Dur)
		}
		pid, ok := ev.Args["parent"].(float64)
		if !ok {
			continue
		}
		p, ok := byID[pid]
		// Timestamps are rounded to nanoseconds, so allow that much slack.
		if !ok || ev.TS+1e-3 < p.TS || ev.TS+ev.Dur > p.TS+p.Dur+1e-3 {
			t.Errorf("span %q [%v,+%v] outside its parent %q [%v,+%v]", ev.Name, ev.TS, ev.Dur, p.Name, p.TS, p.Dur)
		}
	}
}

// TestWrappersOnlyObserve runs cells bare and through each wrapper: the
// timing reader, the sampled predictor and the counting sink writers.
// The counters must not change.
func TestWrappersOnlyObserve(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"bf-cores", "replay-inflight", "tables-suite"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := setup(w, 7, testScale, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cells := in.cells[:len(w.preds)+1]
		bare := runEngine(ctx, cells, plainOpen, nil)
		sunk := newSinks()
		withSinks := runEngine(ctx, cells, plainOpen, sunk)
		if err := sunk.close(); err != nil {
			t.Fatal(err)
		}
		if n := sunk.count(); n.journalEvents == 0 || n.traceEvents == 0 {
			t.Errorf("%s: sinks recorded nothing: %+v", name, n)
		}
		log := newSpanLog()
		var read atomic.Int64
		for i, c := range cells {
			if err := bare.errs[i]; err != nil {
				t.Fatal(err)
			}
			want := bare.counts[i]
			if got := withSinks.counts[i]; got != want {
				t.Errorf("%s: with sinks %+v, bare %+v", c.name(), got, want)
			}
			tr := newTimedReader(c.src.Open(), log, nil, 0, &read)
			st, err := bfbp.RunContext(ctx, c.pred.New(), tr, c.opt)
			closeReader(tr)
			if got := countersOf(st); err != nil || got != want {
				t.Errorf("%s: through the timing reader %+v (%v), bare %+v", c.name(), got, err, want)
			}
			sp := &sampledPredictor{Predictor: c.pred.New()}
			r := c.src.Open()
			st, err = bfbp.RunContext(ctx, sp, r, c.opt)
			closeReader(r)
			if got := countersOf(st); err != nil || got != want {
				t.Errorf("%s: sampled %+v (%v), bare %+v", c.name(), got, err, want)
			}
			if len(sp.predict) == 0 || len(sp.update) == 0 {
				t.Errorf("%s: no latency samples", c.name())
			}
		}
		if read.Load() == 0 {
			t.Errorf("%s: the timing reader timed nothing", name)
		}
		if err := in.close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBadInputs checks that flags and paths from outside the program
// fail with an error, not a panic.
func TestBadInputs(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-workload", "no-such-workload", "-seed", "1"},
		{"-seed", "1"},
		{"-workload", "bf-cores"},
		{"-workload", "bf-cores", "-seed", "-1"},
		{"-workload", "bf-cores", "-seed", "x"},
		{"-workload", "bf-cores", "-seed", "1", "-seconds", "0"},
		{"-workload", "bf-cores", "-seed", "1", "-trace", "2"},
		{"-workload", "bf-cores", "-seed", "1", "extra"},
		{"-workload", "bf-cores", "-seed", "1", "-trace", "1", "-spans", filepath.Join(file, "spans.json")},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out, io.Discard); err == nil {
			t.Errorf("%q: no error", args)
		}
		if out.Len() > 0 {
			t.Errorf("%q: printed %q", args, out.String())
		}
	}
}

// TestMetricNames guards the metric names: the code's tables must match
// BENCHMARK.json, and every per-layer metric must say which end-to-end
// metric it should move on which workloads.
func TestMetricNames(t *testing.T) {
	b := readBenchmarkFile(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEnd), len(perLayer))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if i < len(b.EndToEnd) {
			j := b.EndToEnd[i]
			if j.Name != m.name || j.Unit != m.unit || j.Better != m.better || j.Bound != m.bound {
				t.Errorf("BENCHMARK.json end-to-end %+v, code %+v", j, m)
			}
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	e2e := map[string]bool{"none": true}
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	seen := map[string]bool{}
	for i, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
		if i < len(endToEnd) {
			continue
		}
		if j := b.PerLayer[min(i-len(endToEnd), len(b.PerLayer)-1)]; j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
			t.Errorf("BENCHMARK.json per-layer %+v, code %+v", j, m)
		}
		if !e2e[m.moves] || len(m.on) == 0 {
			t.Errorf("%s moves %q on %v: want an end-to-end metric and workloads", m.name, m.moves, m.on)
		}
		for _, w := range m.on {
			if _, err := findWorkload(w); err != nil {
				t.Errorf("%s: %v", m.name, err)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why == "" {
			t.Errorf("BENCHMARK.json workload %+v, code %q", b.Workloads[i], w.name)
		}
	}
}

// TestGoldenMismatchFails checks that counters off the golden values
// fail the cell and make the run report an error.
func TestGoldenMismatchFails(t *testing.T) {
	w, err := findWorkload("bf-cores")
	if err != nil {
		t.Fatal(err)
	}
	in, err := setup(w, 1, testScale, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	p := in.pass(context.Background(), plainOpen, nil)
	golden := append([]counters(nil), p.counts...)
	golden[2].Mispredicts++
	chk := newChecker(in.cells, golden)
	chk.pass(p)
	if chk.failed != 1 || chk.attempted != len(in.cells) {
		t.Fatalf("%d of %d failed, want 1 of %d: %v", chk.failed, chk.attempted, len(in.cells), chk.problems)
	}
	rep := &report{Workload: w.name, chk: chk, metrics: map[string]float64{}}
	var out bytes.Buffer
	if err := rep.write(&out, io.Discard); err == nil {
		t.Error("a failed cell did not make write return an error")
	}
	if !bytes.Contains(out.Bytes(), []byte(`"correct":false`)) {
		t.Errorf("result line %q does not say correct: false", out.String())
	}
}

// TestGoldenCoversSeeds checks that the golden file holds counters for
// every workload's cells at full scale for the seeds it promises.
func TestGoldenCoversSeeds(t *testing.T) {
	for _, w := range workloads {
		in, err := setup(&w, 1, 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range goldenSeeds {
			g, err := goldenCounters(w.name, seed, in.cellNames())
			if err != nil || g == nil {
				t.Errorf("%s seed %d: no golden counters (%v)", w.name, seed, err)
			}
		}
		if err := in.close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUpdateGolden rewrites testdata/counters.json from one full-scale
// pass per workload and seed when run with -update-golden.
func TestUpdateGolden(t *testing.T) {
	if !*updateGolden {
		t.Skip("run with -update-golden to rewrite testdata/counters.json")
	}
	g := goldenFile{Schema: goldenSchema, Workloads: map[string]goldenWorkload{}}
	for _, w := range workloads {
		gw := goldenWorkload{Seeds: map[string][][3]uint64{}}
		for _, seed := range goldenSeeds {
			in, err := setup(&w, seed, 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			p := in.pass(context.Background(), plainOpen, in.sinks)
			if err := errors.Join(append(p.errs, in.close())...); err != nil {
				t.Fatal(err)
			}
			gw.Cells = in.cellNames()
			for _, c := range p.counts {
				gw.Seeds[strconv.FormatUint(seed, 10)] = append(gw.Seeds[strconv.FormatUint(seed, 10)],
					[3]uint64{c.Branches, c.Mispredicts, c.Instructions})
			}
		}
		g.Workloads[w.name] = gw
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "counters.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
