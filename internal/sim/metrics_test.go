package sim

import (
	"bufio"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"bfbp/internal/obs"
	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

func TestEngineMetricsCollection(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewEngineMetrics(reg)
	eng := Engine{Workers: 2, Metrics: m}
	jobs := testJobs(t, Options{Warmup: 3_000})
	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.RunsOK != uint64(len(jobs)) || s.RunsFailed != 0 {
		t.Fatalf("runs ok/failed = %d/%d, want %d/0", s.RunsOK, s.RunsFailed, len(jobs))
	}
	var branches uint64
	for _, r := range results {
		branches += r.Stats.Branches
	}
	if s.Branches != branches {
		t.Fatalf("branches counter = %d, want %d", s.Branches, branches)
	}
	// Gauges settle to zero once the suite is done.
	if s.Queued != 0 || s.Busy != 0 || s.Workers != 0 {
		t.Fatalf("live gauges not reset: %+v", s)
	}
	// The run-seconds family carries one series per predictor.
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		`bfbp_engine_runs_total{status="ok"} 8`,
		`bfbp_engine_run_seconds_count{predictor="toy"} 4`,
		`bfbp_engine_run_seconds_count{predictor="static-taken"} 4`,
	} {
		if !strings.Contains(prom.String(), frag) {
			t.Fatalf("prometheus export missing %q:\n%s", frag, prom.String())
		}
	}
}

func TestEngineMetricsCountFailures(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewEngineMetrics(reg)
	eng := Engine{Workers: 1, Metrics: m}
	jobs := Matrix(
		[]TraceSource{FuncSource{Label: "bad", OpenFn: func() trace.Reader { return &failReader{after: 10} }}},
		[]PredictorSpec{{Name: "static", New: func() Predictor { return &StaticPredictor{} }}},
		Options{},
	)
	if _, err := eng.Run(context.Background(), jobs); err == nil {
		t.Fatal("want error")
	}
	if s := m.Snapshot(); s.RunsFailed != 1 || s.RunsOK != 0 {
		t.Fatalf("failure not counted: %+v", s)
	}
}

// collectJournal runs a 1-worker suite with a journal attached and
// returns the decoded events.
func collectJournal(t *testing.T, opt Options) []map[string]any {
	t.Helper()
	var buf strings.Builder
	j := obs.NewJournal(&buf)
	j.Clock = func() time.Time { return time.Unix(0, 0).UTC() }
	eng := Engine{Workers: 1, Journal: j}
	s, ok := workload.ByName("INT2")
	if !ok {
		t.Fatal("INT2 missing")
	}
	jobs := Matrix(
		[]TraceSource{s.Source(20_000)},
		[]PredictorSpec{{Name: "toy", New: func() Predictor { return &toyShare{} }}},
		opt,
	)
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		if ev["schema"] != obs.JournalSchema {
			t.Fatalf("line missing schema tag: %v", ev)
		}
		events = append(events, ev)
	}
	return events
}

func TestEngineJournalEventSet(t *testing.T) {
	events := collectJournal(t, Options{Warmup: 2_000, Window: 4_000})
	count := map[string]int{}
	for _, ev := range events {
		count[ev["event"].(string)]++
	}
	if count["suite_start"] != 1 || count["suite_finish"] != 1 {
		t.Fatalf("suite events = %v", count)
	}
	if count["run_start"] != 1 || count["run_finish"] != 1 {
		t.Fatalf("run events = %v", count)
	}
	if count["window"] < 4 {
		t.Fatalf("window events = %d, want >= 4", count["window"])
	}
	// Ordering: suite_start first, suite_finish last.
	if events[0]["event"] != "suite_start" || events[len(events)-1]["event"] != "suite_finish" {
		t.Fatalf("suite events misplaced: first %v last %v", events[0]["event"], events[len(events)-1]["event"])
	}
	// run_finish totals are self-consistent.
	for _, ev := range events {
		if ev["event"] == "run_finish" {
			if ev["trace"] != "INT2" || ev["predictor"] != "toy" {
				t.Fatalf("run_finish identity wrong: %v", ev)
			}
			if ev["branches"].(float64) < 20_000 {
				t.Fatalf("run_finish branches = %v", ev["branches"])
			}
		}
	}
}

// The journal content (with a pinned clock) is byte-deterministic for a
// single-worker run: the schema promises determinism modulo wall-clock
// fields, and with Clock pinned and elapsed_ns/branches_per_sec
// stripped the remainder must be identical across runs.
func TestEngineJournalDeterministic(t *testing.T) {
	strip := func(events []map[string]any) []map[string]any {
		for _, ev := range events {
			delete(ev, "elapsed_ns")
			delete(ev, "branches_per_sec")
		}
		return events
	}
	a := strip(collectJournal(t, Options{Window: 5_000}))
	b := strip(collectJournal(t, Options{Window: 5_000}))
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("journal not deterministic:\n%s\n%s", ja, jb)
	}
}

// TestEngineJournalStorage checks that a predictor's storage budget is
// journaled once per predictor, not once per cell, with its total.
func TestEngineJournalStorage(t *testing.T) {
	var buf strings.Builder
	j := obs.NewJournal(&buf)
	eng := Engine{Workers: 2, Journal: j}
	s, ok := workload.ByName("FP1")
	if !ok {
		t.Fatal("FP1 missing")
	}
	// Two traces, same predictor: storage must be journaled once.
	s2, _ := workload.ByName("FP2")
	jobs := Matrix(
		[]TraceSource{s.Source(5_000), s2.Source(5_000)},
		[]PredictorSpec{{Name: "acct", New: func() Predictor { return &accountingToy{} }}},
		Options{},
	)
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if n := strings.Count(got, `"event":"storage"`); n != 1 {
		t.Fatalf("storage events = %d, want 1 (deduped per predictor)", n)
	}
	if !strings.Contains(got, `"total_bits":128`) {
		t.Fatalf("storage payload missing total_bits: %s", got)
	}
}

// accountingToy reports storage, to exercise the optional journal
// event.
type accountingToy struct{ StaticPredictor }

func (a *accountingToy) Name() string { return "acct" }
func (a *accountingToy) Storage() Breakdown {
	return Breakdown{Name: "acct", Components: []Component{{Name: "table", Bits: 128}}}
}

// A fully observed engine must produce the same statistics as a bare
// one: metrics, journal, tracer, windows and state probes observe the
// run, they never change it.
func TestProbeDoesNotPerturbStats(t *testing.T) {
	s, ok := workload.ByName("MM1")
	if !ok {
		t.Fatal("MM1 missing")
	}
	jobs := Matrix(
		[]TraceSource{s.Source(20_000)},
		[]PredictorSpec{{Name: "toy", New: func() Predictor { return &probeToy{} }}},
		Options{Warmup: 2_000, Window: 3_000, PerPC: true, ProbeStateEvery: 4096},
	)
	bare, err := (&Engine{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(discard{})
	observed := Engine{Workers: 1, Metrics: NewEngineMetrics(obs.NewRegistry()),
		Journal: obs.NewJournal(discard{}), Tracer: tr}
	got, err := observed.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare[0].Stats, got[0].Stats) {
		t.Fatalf("observation perturbed stats: %+v vs %+v", bare[0].Stats, got[0].Stats)
	}
}

// BenchmarkEngineTelemetry measures a whole 2-job suite with every
// receiver of the event stream attached — metrics, journal, tracer
// (state counter tracks), windows and state probes — versus bare.
func BenchmarkEngineTelemetry(b *testing.B) {
	jobs := func(b *testing.B) []Job {
		s, ok := workload.ByName("INT4")
		if !ok {
			b.Fatal("INT4 missing")
		}
		return Matrix(
			[]TraceSource{s.Source(60_000)},
			[]PredictorSpec{
				{Name: "toy", New: func() Predictor { return &probeToy{} }},
				{Name: "static", New: func() Predictor { return &StaticPredictor{} }},
			},
			// A bare engine installs no event receiver, so "off" takes
			// neither windows nor state samples.
			Options{Warmup: 6_000, Window: 10_000, ProbeStateEvery: 8192},
		)
	}
	b.Run("off", func(b *testing.B) {
		eng := Engine{Workers: 2}
		js := jobs(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(context.Background(), js); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		reg := obs.NewRegistry()
		tr := obs.NewTracer(discard{})
		eng := Engine{Workers: 2, Metrics: NewEngineMetrics(reg), Journal: obs.NewJournal(discard{}), Tracer: tr}
		js := jobs(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(context.Background(), js); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := tr.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
