package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateTraceGolden = flag.Bool("update", false, "rewrite the trace golden file")

// fakeClock returns a Clock advancing by step per call, for
// byte-deterministic traces.
func fakeClock(step time.Duration) func() time.Duration {
	var tick time.Duration
	return func() time.Duration {
		tick += step
		return tick
	}
}

// traceDoc is the decoded shape of a bfbp.trace.v1 file.
type traceDoc struct {
	Schema          string `json:"schema"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   *float64       `json:"ts"`
		Dur  *float64       `json:"dur"`
		PID  *int64         `json:"pid"`
		TID  *int64         `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func parseTrace(t *testing.T, b []byte) traceDoc {
	t.Helper()
	var doc traceDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b)
	}
	return doc
}

// goldenTrace drives a fixed single-threaded scenario: a suite span
// with one run span on another lane, a batch child, counter-track
// samples, and lane metadata — every event shape the tracer can emit.
func goldenTrace(w *bytes.Buffer) *Tracer {
	tr := NewTracer(w)
	tr.Clock = fakeClock(100 * time.Microsecond)
	tr.ProcessName("bfsim")
	tr.ThreadName(0, "engine")
	tr.ThreadName(1, "worker 0")
	suite := tr.StartSpan("suite", "suite", 0).Attr("jobs", 1).Attr("workers", 1)
	run := suite.ChildTID("run", "bf-tage-10/SERV1", 1).
		Attr("trace", "SERV1").Attr("predictor", "bf-tage-10")
	batch := run.Child("batch", "batch").Attr("records", 4096)
	batch.End()
	tr.Counter("mpki", map[string]float64{"SERV1/bf-tage-10": 4.25})
	tr.Counter("throughput", map[string]float64{"branches_per_sec": 1.5e6})
	tr.Counter("mpki", map[string]float64{"SERV1/bf-tage-10": 9.5})
	run.End()
	suite.End()
	return tr
}

// The bfbp.trace.v1 format is frozen byte-for-byte: Perfetto, the CI
// artifact pipeline, and cmd/journal cross-references all parse it, so
// any change must be a deliberate schema bump (rerun with -update).
func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := goldenTrace(&buf)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "trace.json.golden")
	if *updateTraceGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestTraceGolden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bfbp.trace.v1 drifted from golden bytes.\ngot:\n%s\nwant:\n%s\n(if the schema change is intentional, rerun with -update and document it)", got, want)
	}
}

// Every event must carry the fields Perfetto requires to place a slice:
// ph, ts, pid, tid, name — asserted on the decoded JSON, not the bytes,
// so this holds for any scenario, not just the golden one.
func TestTracePerfettoRequiredFields(t *testing.T) {
	var buf bytes.Buffer
	tr := goldenTrace(&buf)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	doc := parseTrace(t, buf.Bytes())
	if doc.Schema != TraceSchema {
		t.Fatalf("schema = %q, want %q", doc.Schema, TraceSchema)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events emitted")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "" {
			t.Errorf("event %d: missing ph", i)
		}
		if ev.TS == nil {
			t.Errorf("event %d (%s): missing ts", i, ev.Name)
		}
		if ev.PID == nil || ev.TID == nil {
			t.Errorf("event %d (%s): missing pid/tid", i, ev.Name)
		}
		if ev.Name == "" {
			t.Errorf("event %d: missing name", i)
		}
		if ev.Ph == "X" && ev.Dur == nil {
			t.Errorf("event %d (%s): complete event missing dur", i, ev.Name)
		}
	}
}

// Counter tracks carry the shape Perfetto needs: "C" events with
// numeric args series on the process row.
func TestTraceCounterEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := goldenTrace(&buf)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	doc := parseTrace(t, buf.Bytes())
	counters := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "C" {
			continue
		}
		counters++
		if len(ev.Args) == 0 {
			t.Errorf("counter %q has no series args", ev.Name)
		}
		for k, v := range ev.Args {
			if _, ok := v.(float64); !ok {
				t.Errorf("counter %q series %q is %T, want number", ev.Name, k, v)
			}
		}
		if *ev.TID != 0 {
			t.Errorf("counter %q on tid %d, want process row 0", ev.Name, *ev.TID)
		}
	}
	if counters != 3 {
		t.Fatalf("got %d counter events, want 3", counters)
	}
	// A nil tracer stays inert for counters too.
	var nilTr *Tracer
	nilTr.Counter("mpki", map[string]float64{"x": 1})
}

// Span IDs are deterministic (1, 2, 3 in start order), parents link
// children to their ancestors, and run spans land on their worker lane.
func TestTraceSpanNesting(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Clock = fakeClock(time.Microsecond)
	suite := tr.StartSpan("suite", "suite", 0)
	if suite.ID() != 1 {
		t.Fatalf("suite span id = %d, want 1", suite.ID())
	}
	run := suite.ChildTID("run", "r", 3)
	batch := run.Child("batch", "b")
	if run.ID() != 2 || batch.ID() != 3 {
		t.Fatalf("ids = %d, %d, want 2, 3", run.ID(), batch.ID())
	}
	if got := tr.InFlight(); got != 3 {
		t.Fatalf("InFlight = %d, want 3", got)
	}
	batch.End()
	run.End()
	suite.End()
	if got := tr.InFlight(); got != 0 {
		t.Fatalf("InFlight after End = %d, want 0", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	doc := parseTrace(t, buf.Bytes())
	parents := map[float64]float64{} // span id -> parent id
	tids := map[float64]int64{}
	for _, ev := range doc.TraceEvents {
		id, ok := ev.Args["span"].(float64)
		if !ok {
			continue
		}
		tids[id] = *ev.TID
		if p, ok := ev.Args["parent"].(float64); ok {
			parents[id] = p
		}
	}
	if parents[2] != 1 || parents[3] != 2 {
		t.Fatalf("parent links = %v, want 2->1, 3->2", parents)
	}
	if _, hasParent := parents[1]; hasParent {
		t.Fatal("root span must not carry a parent arg")
	}
	if tids[2] != 3 || tids[3] != 3 {
		t.Fatalf("run/batch tids = %v, want lane 3", tids)
	}
}

// A nil tracer and nil spans are fully inert and never allocate — this
// is what keeps the instrumented hot paths zero-alloc when tracing is
// off (the sim alloc guard covers the real loop; this pins the obs
// contract itself).
func TestTraceNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Err() != nil || tr.Close() != nil || tr.InFlight() != 0 || tr.Events() != 0 {
		t.Fatal("nil tracer methods must be inert")
	}
	tr.ThreadName(0, "x")
	tr.ProcessName("x")
	sp := tr.StartSpan("suite", "suite", 0)
	if sp != nil {
		t.Fatal("nil tracer must return nil span")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s := tr.StartSpan("k", "n", 0)
		c := s.Child("k", "n").Attr("a", 1)
		c.End()
		s.ChildTID("k", "n", 2).End()
		s.End()
		_ = s.ID()
	})
	if allocs != 0 {
		t.Fatalf("nil span path allocated %.1f times per op, want 0", allocs)
	}
}

// Concurrent span emission from many goroutines must produce a valid
// document with unique ids and balanced in-flight accounting.
func TestTraceConcurrentSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := tr.StartSpan("suite", "suite", 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := root.ChildTID("run", fmt.Sprintf("w%d-%d", w, i), int64(w+1))
				sp.Child("batch", "b").End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	doc := parseTrace(t, buf.Bytes())
	seen := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		id, ok := ev.Args["span"].(float64)
		if !ok {
			continue
		}
		if seen[id] {
			t.Fatalf("duplicate span id %v", id)
		}
		seen[id] = true
	}
	if want := 8*50*2 + 1; len(seen) != want {
		t.Fatalf("got %d span events, want %d", len(seen), want)
	}
	if tr.InFlight() != 0 {
		t.Fatalf("InFlight = %d after all spans ended", tr.InFlight())
	}
}

// Close is idempotent and events after Close are dropped, not appended
// past the footer.
func TestTraceCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.StartSpan("suite", "s", 0).End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	tr.StartSpan("suite", "late", 0).End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Fatal("events appended after Close")
	}
	parseTrace(t, buf.Bytes())
}

// A truncated (uncloseed) trace must still carry every emitted event in
// the stream — the crash-survivability property.
func TestTraceSurvivesMissingFooter(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.StartSpan("suite", "s", 0).End()
	// No Close: simulate a crash. The event bytes must already be
	// flushed through the bufio layer.
	if !strings.Contains(buf.String(), `"name":"s"`) {
		t.Fatalf("event not flushed before Close:\n%s", buf.String())
	}
}
