package sim

import (
	"bufio"
	"context"
	"encoding/json"
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
	// The injected probe sampled predict and update latencies.
	if s.PredictSamples == 0 || s.UpdateSamples == 0 {
		t.Fatalf("probe collected no samples: %+v", s)
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
		"bfbp_harness_predict_seconds_count",
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
	// One busy + one idle transition for the single worker and run.
	if count["worker_state"] != 2 {
		t.Fatalf("worker_state events = %d, want 2", count["worker_state"])
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

func TestEngineJournalStorageAndTableHits(t *testing.T) {
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

func TestHarnessProbeSampling(t *testing.T) {
	reg := obs.NewRegistry()
	pr := &HarnessProbe{
		Every:   64,
		Predict: reg.Quantile("p", ""),
		Update:  reg.Quantile("u", ""),
	}
	recs := mkTrace(make([]bool, 1024))
	if _, err := Run(&StaticPredictor{}, recs.Stream(), Options{Probe: pr}); err != nil {
		t.Fatal(err)
	}
	// 1024 branches at one sample per 64: exactly 16 predict samples.
	if pr.Predict.Count() != 16 || pr.Update.Count() != 16 {
		t.Fatalf("samples = %d/%d, want 16/16", pr.Predict.Count(), pr.Update.Count())
	}
	// Probe with delayed update still samples the update path.
	pr2 := &HarnessProbe{Every: 64, Predict: pr.Predict, Update: reg.Quantile("u2", "")}
	if _, err := Run(&StaticPredictor{}, recs.Stream(), Options{Probe: pr2, UpdateDelay: 8}); err != nil {
		t.Fatal(err)
	}
	if pr2.Update.Count() == 0 {
		t.Fatal("delayed-update path not sampled")
	}
}

func TestProbeSampleMask(t *testing.T) {
	for _, tc := range []struct {
		every uint64
		mask  uint64
	}{
		{0, 63}, {1, 0}, {64, 63}, {65, 127}, {100, 127},
		{1 << 63, 1<<63 - 1}, {1<<63 + 1, ^uint64(0)}, {^uint64(0), ^uint64(0)},
	} {
		pr := &HarnessProbe{Every: tc.every}
		if got := pr.sampleMask(); got != tc.mask {
			t.Fatalf("sampleMask(Every=%d) = %d, want %d", tc.every, got, tc.mask)
		}
	}
}

// Instrumented runs must produce identical statistics to bare runs: the
// probe only times calls, it never changes the simulation.
func TestProbeDoesNotPerturbStats(t *testing.T) {
	s, ok := workload.ByName("MM1")
	if !ok {
		t.Fatal("MM1 missing")
	}
	opt := Options{Warmup: 2_000, Window: 3_000, PerPC: true}
	bare, err := Run(&toyShare{}, s.Source(20_000).Open(), opt)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opt.Probe = NewEngineMetrics(reg).Probe()
	probed, err := Run(&toyShare{}, s.Source(20_000).Open(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Branches != probed.Branches || bare.Mispredicts != probed.Mispredicts ||
		bare.Instructions != probed.Instructions || len(bare.Windows) != len(probed.Windows) {
		t.Fatalf("probe perturbed stats: %+v vs %+v", bare, probed)
	}
}

// Probed runs must stay close to the uninstrumented path. The
// acceptance bound is <5% suite wall time; this guard allows 50% on a
// min-of-3 measurement purely to absorb CI noise — the real comparison
// lives in BenchmarkHarnessTelemetry, where the off path is a single
// nil test per branch. Off and probed runs alternate, so a burst of
// machine load slows both sides instead of one.
func TestTelemetryOffOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	s, ok := workload.ByName("SPEC01")
	if !ok {
		t.Fatal("SPEC01 missing")
	}
	timed := func(opt Options) time.Duration {
		start := time.Now()
		if _, err := Run(&toyShare{}, s.Source(150_000).Open(), opt); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	probe := Options{Probe: NewEngineMetrics(obs.NewRegistry()).Probe()}
	off, probed := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 3; i++ {
		off = min(off, timed(Options{}))
		probed = min(probed, timed(probe))
	}
	if probed > off*3/2 {
		t.Fatalf("sampled telemetry cost too high: off %v vs probed %v", off, probed)
	}
}

// BenchmarkHarnessTelemetry pins the acceptance criterion: the "off"
// path (no probe — exactly what runs when no telemetry flag is set)
// versus the sampled probe path. Compare with benchstat; "off" must be
// within 5% of PR 1 and "probe" within a few percent of "off".
func BenchmarkHarnessTelemetry(b *testing.B) {
	s, ok := workload.ByName("SPEC00")
	if !ok {
		b.Fatal("SPEC00 missing")
	}
	const n = 200_000
	bench := func(opt Options) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := Run(&toyShare{}, s.Source(n).Open(), opt)
				if err != nil {
					b.Fatal(err)
				}
				if st.Branches == 0 {
					b.Fatal("empty run")
				}
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds()/1e6, "Mbranches/s")
		}
	}
	b.Run("off", bench(Options{}))
	reg := obs.NewRegistry()
	b.Run("probe", bench(Options{Probe: NewEngineMetrics(reg).Probe()}))
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
