package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

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

// Flags declares the four telemetry flags, disabled by default, and
// parsing them fills the Config that Start takes.
func TestFlagsFillConfig(t *testing.T) {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	cfg := Flags(fs)
	if cfg.Enabled() {
		t.Fatalf("defaults enable telemetry: %+v", *cfg)
	}
	args := []string{"-metrics-addr", "localhost:0", "-journal", "j.jsonl", "-heartbeat", "2s", "-trace-out", "t.json"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := Config{MetricsAddr: "localhost:0", JournalPath: "j.jsonl", Heartbeat: 2 * time.Second, TracePath: "t.json"}
	if *cfg != want {
		t.Fatalf("parsed config %+v, want %+v", *cfg, want)
	}
}

// End-to-end: run a small latency- and state-probed suite with the
// metrics endpoint and journal enabled, then check the HTTP surface
// (summary sample counts, table occupancy, pprof), the heartbeat line,
// and the journal file.
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
		[]sim.PredictorSpec{{Name: "bimodal", New: func() sim.Predictor { return bimodal.New(1 << 12) }}},
		sim.Options{Window: 5_000, ProbeStateEvery: 4_096},
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
	} {
		if !strings.Contains(metrics, frag) {
			t.Fatalf("/metrics missing %q:\n%s", frag, metrics)
		}
	}
	if summaryCount(metrics, "bfbp_engine_run_seconds") == 0 {
		t.Errorf("/metrics bfbp_engine_run_seconds has no quantile samples:\n%s", metrics)
	}

	// The heartbeat line reports the finished run.
	var lastBranches uint64
	last := time.Now().Add(-time.Second)
	if line := tel.heartbeatLine(&lastBranches, &last, time.Now()); !strings.Contains(line, "1/1 runs") {
		t.Errorf("heartbeat missing run count: %q", line)
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

// summaryCount sums the _count lines of a Prometheus summary family
// across its label sets. An absent family counts zero.
func summaryCount(prom, name string) uint64 {
	var n uint64
	for _, line := range strings.Split(prom, "\n") {
		rest, ok := strings.CutPrefix(line, name+"_count")
		if !ok || (rest != "" && rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		v, err := strconv.ParseUint(rest[strings.LastIndexByte(rest, ' ')+1:], 10, 64)
		if err == nil {
			n += v
		}
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

// A traced, metered run writes no slice per branch and registers no
// span-duration family: its timeline grows with record batches, not
// with branches.
func TestTracedRunSlicesPerBatch(t *testing.T) {
	spec, ok := workload.ByName("INT1")
	if !ok {
		t.Fatal("INT1 missing")
	}
	run := func(n int) (slices int) {
		dir := t.TempDir()
		tracePath := filepath.Join(dir, "run.trace.json")
		tel, err := Start(Config{TracePath: tracePath})
		if err != nil {
			t.Fatal(err)
		}
		defer tel.Close()
		var eng sim.Engine
		tel.Attach(&eng)
		jobs := sim.Matrix(
			[]sim.TraceSource{spec.Source(n)},
			[]sim.PredictorSpec{{Name: "bimodal", New: func() sim.Predictor { return bimodal.New(1 << 12) }}},
			sim.Options{},
		)
		res, err := eng.Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if err := tel.Close(); err != nil {
			t.Fatal(err)
		}
		branches := res[0].Stats.Branches
		var prom strings.Builder
		if err := tel.Registry.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(prom.String(), "bfbp_span_seconds") {
			t.Errorf("%d branches: registry carries a bfbp_span_seconds family", n)
		}
		raw, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Events []struct {
				Cat string `json:"cat"`
				Ph  string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("trace file is not valid JSON: %v", err)
		}
		phases := 0
		for _, ev := range doc.Events {
			if ev.Ph != "X" {
				continue
			}
			slices++
			if ev.Cat == "predict" || ev.Cat == "update" {
				phases++
			}
		}
		if phases > 0 {
			t.Errorf("%d branches: timeline has %d predict/update slices", n, phases)
		}
		// The suite and run spans, one batch span per 4096-record read
		// and one for the read that meets the end of the trace.
		if want := 3 + int(branches+4095)/4096; slices != want {
			t.Errorf("%d branches: %d slices, want %d", branches, slices, want)
		}
		return slices
	}
	if short, long := run(20_000), run(200_000); long <= short {
		t.Fatalf("slices did not grow with batches: %d for 20k branches, %d for 200k", short, long)
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
