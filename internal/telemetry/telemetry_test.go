package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"bfbp/internal/obs"
	"bfbp/internal/predictor/bimodal"
	"bfbp/internal/sim"
	"bfbp/internal/workload"
)

func TestDisabledConfigIsInert(t *testing.T) {
	tel, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tel != nil {
		t.Fatal("disabled config must return nil T")
	}
	// Every method on the nil T is a no-op.
	var eng sim.Engine
	tel.Attach(&eng)
	if eng.Metrics != nil || eng.Journal != nil {
		t.Fatal("nil T attached telemetry")
	}
	if tel.RunJournal() != nil || tel.Close() != nil {
		t.Fatal("nil T methods must be inert")
	}
}

// End-to-end: run a small latency- and state-probed suite with the
// metrics endpoint and journal enabled, then check the HTTP surface
// (summary quantiles, table occupancy, runtime gauges), the heartbeat
// fields, and the journal file.
func TestStartServesMetricsAndJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	tel, err := Start(Config{MetricsAddr: "127.0.0.1:0", JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()

	var eng sim.Engine
	eng.Workers = 2
	tel.Attach(&eng)
	if eng.Metrics == nil || eng.Journal == nil {
		t.Fatal("Attach wired nothing")
	}
	spec, ok := workload.ByName("INT1")
	if !ok {
		t.Fatal("INT1 missing")
	}
	jobs := sim.Matrix(
		[]sim.TraceSource{spec.Source(20_000)},
		[]sim.PredictorSpec{{Name: "bimodal", New: func() sim.Predictor { return bimodal.New(1<<12, 2) }}},
		sim.Options{Window: 5_000, Probe: tel.Engine.Probe(), ProbeStateEvery: 4_096},
	)
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		resp, err := http.Get("http://" + tel.Addr + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("%s: status %d err %v", path, resp.StatusCode, err)
		}
		return string(b)
	}
	metrics := get("/metrics")
	for _, frag := range []string{
		`bfbp_engine_runs_total{status="ok"} 1`,
		`bfbp_table_occupancy{predictor="bimodal"`,
		"bfbp_runtime_heap_bytes ",
	} {
		if !strings.Contains(metrics, frag) {
			t.Fatalf("/metrics missing %q:\n%s", frag, metrics)
		}
	}
	body := get("/debug/vars")
	if !strings.Contains(body, `"bfbp_engine_branches_total"`) {
		t.Fatalf("/debug/vars missing branches counter:\n%s", body)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	for _, name := range []string{
		"bfbp_engine_run_seconds",
		"bfbp_harness_predict_seconds",
		"bfbp_harness_update_seconds",
	} {
		if quantileSamples(vars[name]) == 0 {
			t.Errorf("/debug/vars %s has no quantile samples: %s", name, vars[name])
		}
	}
	// With tracing off the span summary stays empty.
	if n := quantileSamples(vars["bfbp_span_seconds"]); n != 0 {
		t.Errorf("bfbp_span_seconds has %d samples with tracing off", n)
	}

	// The heartbeat line carries the runtime collector's fields.
	var lastBranches uint64
	last := time.Now().Add(-time.Second)
	line := tel.heartbeatLine(&lastBranches, &last, time.Now())
	for _, frag := range []string{" heap", " gor", " gc p99"} {
		if !strings.Contains(line, frag) {
			t.Errorf("heartbeat missing %q: %q", frag, line)
		}
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index not served:\n%s", body)
	}

	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			Schema string `json:"schema"`
			Event  string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		if ev.Schema != "bfbp.journal.v1" {
			t.Fatalf("wrong schema %q", ev.Schema)
		}
		events[ev.Event]++
	}
	for _, want := range []string{"suite_start", "run_start", "run_finish", "window", "suite_finish"} {
		if events[want] == 0 {
			t.Fatalf("journal missing %s events (got %v)", want, events)
		}
	}
}

// quantileSamples counts the samples of a /debug/vars quantile entry:
// an unlabeled summary, or a family whose series are summed. An absent
// entry counts zero.
func quantileSamples(raw json.RawMessage) uint64 {
	if raw == nil {
		return 0
	}
	var one obs.QuantileSnapshot
	if err := json.Unmarshal(raw, &one); err == nil && one.Count > 0 {
		return one.Count
	}
	var fam map[string]obs.QuantileSnapshot
	if err := json.Unmarshal(raw, &fam); err != nil {
		return 0
	}
	var n uint64
	for _, s := range fam {
		n += s.Count
	}
	return n
}

// End-to-end with tracing: run a suite with -trace-out wired, then
// check the sealed file is valid Chrome trace-event JSON with nested
// suite/run spans and that journal events carry matching span IDs.
func TestStartTraceExport(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace.json")
	journal := filepath.Join(dir, "run.jsonl")
	tel, err := Start(Config{TracePath: tracePath, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	if tel.Tracer == nil {
		t.Fatal("TracePath set but Tracer is nil")
	}

	var eng sim.Engine
	eng.Workers = 2
	tel.Attach(&eng)
	if eng.Tracer == nil {
		t.Fatal("Attach did not wire the tracer")
	}
	spec, ok := workload.ByName("INT1")
	if !ok {
		t.Fatal("INT1 missing")
	}
	jobs := sim.Matrix(
		[]sim.TraceSource{spec.Source(20_000)},
		[]sim.PredictorSpec{
			{Name: "static-taken", New: func() sim.Predictor { return &sim.StaticPredictor{Direction: true} }},
			{Name: "static-nt", New: func() sim.Predictor { return &sim.StaticPredictor{} }},
		},
		sim.Options{Window: 5_000},
	)
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Events []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if doc.Schema != "bfbp.trace.v1" {
		t.Fatalf("schema %q, want bfbp.trace.v1", doc.Schema)
	}
	spanIDs := map[float64]string{} // span id -> cat
	for _, ev := range doc.Events {
		if ev.Ph != "X" {
			continue
		}
		if id, ok := ev.Args["span"].(float64); ok {
			spanIDs[id] = ev.Cat
		}
	}
	cats := map[string]int{}
	for _, c := range spanIDs {
		cats[c]++
	}
	if cats["suite"] != 1 || cats["run"] != 2 || cats["batch"] == 0 {
		t.Fatalf("want 1 suite, 2 run, >0 batch spans; got %v", cats)
	}

	// Every span-tagged journal event must reference a real trace span.
	jf, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	tagged := 0
	sc := bufio.NewScanner(jf)
	for sc.Scan() {
		var ev struct {
			Event string   `json:"event"`
			Span  *float64 `json:"span"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		if ev.Span == nil {
			continue
		}
		tagged++
		if _, ok := spanIDs[*ev.Span]; !ok {
			t.Fatalf("journal %s event references span %v absent from trace", ev.Event, *ev.Span)
		}
	}
	if tagged == 0 {
		t.Fatal("no journal events carried span IDs")
	}
}

// The heartbeat line must report spans-in-flight and journal bytes
// when those sinks are live, and omit the fields when they are not.
func TestHeartbeatLineReportsTraceAndJournal(t *testing.T) {
	dir := t.TempDir()
	tel, err := Start(Config{
		TracePath:   filepath.Join(dir, "t.json"),
		JournalPath: filepath.Join(dir, "j.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()

	sp := tel.Tracer.StartSpan("suite", "suite", 0)
	tel.Journal.Emit("suite_start", map[string]int{"jobs": 1})

	var lastBranches uint64
	last := time.Now().Add(-time.Second)
	line := tel.heartbeatLine(&lastBranches, &last, time.Now())
	if !strings.Contains(line, ", 1 spans") {
		t.Fatalf("heartbeat missing spans-in-flight: %q", line)
	}
	if !strings.Contains(line, " journal") || strings.Contains(line, " 0 journal") {
		t.Fatalf("heartbeat missing journal bytes: %q", line)
	}
	sp.End()

	// Without trace/journal sinks the fields must be absent.
	bare, err := Start(Config{Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	line = bare.heartbeatLine(&lastBranches, &last, time.Now())
	if strings.Contains(line, "spans") || strings.Contains(line, "journal") {
		t.Fatalf("bare heartbeat has trace/journal fields: %q", line)
	}
}

// Closing a telemetry stack with an active tracer must seal the trace
// file (valid JSON footer) and leak no goroutines — the flush path is
// synchronous, so surviving goroutines mean a regression.
func TestTracerShutdownLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	for i := 0; i < 10; i++ {
		path := filepath.Join(dir, "t.json")
		tel, err := Start(Config{TracePath: path, Heartbeat: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		tel.Tracer.StartSpan("suite", "suite", 0).End()
		if err := tel.Close(); err != nil {
			t.Fatal(err)
		}
		if err := tel.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("sealed trace is not valid JSON: %v\n%s", err, raw)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("tracer shutdown leaked goroutines: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

// Closing telemetry before the first heartbeat tick must reap the
// ticker goroutine: Close blocks on the stopped channel, so a leak
// shows up either as a hang here or as surviving goroutines.
func TestHeartbeatStopsOnEarlyClose(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		tel, err := Start(Config{Heartbeat: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if err := tel.Close(); err != nil {
			t.Fatal(err)
		}
		// Idempotent: a deferred second Close must not panic or hang.
		if err := tel.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("heartbeat goroutines leaked: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

func TestStartBadAddrFailsFast(t *testing.T) {
	if _, err := Start(Config{MetricsAddr: "256.256.256.256:99999"}); err == nil {
		t.Fatal("want listen error")
	}
}

func TestHuman(t *testing.T) {
	for v, want := range map[float64]string{
		12:    "12",
		4_200: "4.2K",
		3.4e6: "3.4M",
		2.5e9: "2.5G",
	} {
		if got := human(v); got != want {
			t.Fatalf("human(%v) = %q, want %q", v, got, want)
		}
	}
}
