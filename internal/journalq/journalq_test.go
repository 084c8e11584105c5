package journalq

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"bfbp/internal/obs"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

// payload mirrors the sim journal's run_finish shape closely enough to
// exercise Read/Summarize/Diff without importing internal/sim.
type runFinish struct {
	Trace       string  `json:"trace"`
	Predictor   string  `json:"predictor"`
	Branches    uint64  `json:"branches"`
	Mispredicts uint64  `json:"mispredicts"`
	MPKI        float64 `json:"mpki"`
	Span        uint64  `json:"span,omitempty"`
}

type window struct {
	Trace     string  `json:"trace"`
	Predictor string  `json:"predictor"`
	Index     int     `json:"index"`
	MPKI      float64 `json:"mpki"`
	Span      uint64  `json:"span,omitempty"`
}

// buildJournal writes a deterministic two-cell journal and returns its
// bytes.
func buildJournal(t *testing.T, mutate bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	j.Clock = func() time.Time { return time.Unix(0, 0).UTC() }
	j.Emit("suite_start", map[string]int{"jobs": 2, "workers": 1})
	mpki := 4.2
	misp := uint64(2100)
	if mutate {
		mpki, misp = 5.0, 2500
	}
	j.Emit("run_finish", runFinish{Trace: "INT1", Predictor: "bimodal", Branches: 500_000, Mispredicts: misp, MPKI: mpki, Span: 2})
	j.Emit("window", window{Trace: "INT1", Predictor: "bimodal", Index: 0, MPKI: mpki, Span: 2})
	j.Emit("run_finish", runFinish{Trace: "MM1", Predictor: "bimodal", Branches: 500_000, Mispredicts: 900, MPKI: 1.8, Span: 3})
	j.Emit("suite_finish", map[string]int{"runs": 2})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadAndSummarize(t *testing.T) {
	events, err := Read(bytes.NewReader(buildJournal(t, false)))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	s := Summarize(events)
	if s.ByKind["run_finish"] != 2 || s.ByKind["window"] != 1 {
		t.Fatalf("kind counts wrong: %v", s.ByKind)
	}
	if len(s.Runs) != 2 || s.Runs[0].Trace != "INT1" || s.Runs[0].Span != 2 {
		t.Fatalf("run lines wrong: %+v", s.Runs)
	}
	out := s.Render()
	for _, frag := range []string{"5 events", "run_finish", "INT1", "bimodal", "4.200"} {
		if !strings.Contains(out, frag) {
			t.Errorf("summary missing %q:\n%s", frag, out)
		}
	}
}

func TestReadRejectsForeignSchema(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"schema":"other.v1","event":"x"}` + "\n")); err == nil {
		t.Fatal("want schema error")
	}
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Fatal("want parse error")
	}
}

func TestFilter(t *testing.T) {
	events, err := Read(bytes.NewReader(buildJournal(t, false)))
	if err != nil {
		t.Fatal(err)
	}
	if got := len((Filter{Kind: "run_finish"}).Apply(events)); got != 2 {
		t.Fatalf("kind filter: got %d, want 2", got)
	}
	if got := len((Filter{Trace: "INT1"}).Apply(events)); got != 2 {
		t.Fatalf("trace filter: got %d, want 2", got)
	}
	if got := len((Filter{Span: 3}).Apply(events)); got != 1 {
		t.Fatalf("span filter: got %d, want 1", got)
	}
	if got := len((Filter{Kind: "run_finish", Predictor: "nope"}).Apply(events)); got != 0 {
		t.Fatalf("mismatched filter: got %d, want 0", got)
	}
}

// Two identical-seed journals must diff clean; a mutated cell must be
// flagged on every diverging field.
func TestDiff(t *testing.T) {
	a, err := Read(bytes.NewReader(buildJournal(t, false)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Read(bytes.NewReader(buildJournal(t, false)))
	if err != nil {
		t.Fatal(err)
	}
	if rep := Diff(a, b, 1e-9); !rep.Clean() {
		t.Fatalf("identical journals drifted:\n%s", rep.Render())
	}

	c, err := Read(bytes.NewReader(buildJournal(t, true)))
	if err != nil {
		t.Fatal(err)
	}
	rep := Diff(a, c, 1e-9)
	if rep.Clean() {
		t.Fatal("mutated journal diffed clean")
	}
	fields := map[string]bool{}
	for _, d := range rep.Drifts {
		if d.Trace != "INT1" || d.Predictor != "bimodal" {
			t.Fatalf("drift on wrong cell: %+v", d)
		}
		fields[d.Field] = true
	}
	for _, want := range []string{"mispredicts", "mpki", "window[0].mpki"} {
		if !fields[want] {
			t.Errorf("drift missing field %s (got %v)", want, fields)
		}
	}
	out := rep.Render()
	if !strings.Contains(out, "drift INT1/bimodal mispredicts") {
		t.Errorf("render missing drift line:\n%s", out)
	}
}

func TestDiffDisjointCells(t *testing.T) {
	a, _ := Read(bytes.NewReader(buildJournal(t, false)))
	rep := Diff(a, nil, 1e-9)
	if rep.Clean() || len(rep.OnlyA) != 2 {
		t.Fatalf("want 2 only-in-A cells, got %+v", rep)
	}
}

// A windowed engine run journals each window exactly once, marks only
// the trailing partial window "final", and journals as many window
// indices as Stats.Windows holds, even with two workers interleaving
// the runs' events.
func TestWindowEventsJournaledOnce(t *testing.T) {
	const (
		full   = 30 // full windows per run, then one partial window
		window = 1000
	)
	recs := make(trace.Slice, full*window+window/2)
	for i := range recs {
		recs[i] = trace.Record{PC: 0x400, Target: 0x800, Instret: 4, Taken: i%3 == 0}
	}
	var preds []sim.PredictorSpec
	for _, taken := range []bool{true, false} {
		newP := func() sim.Predictor { return &sim.StaticPredictor{Direction: taken} }
		preds = append(preds, sim.PredictorSpec{Name: newP().Name(), New: newP})
	}
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	j.Clock = func() time.Time { return time.Unix(0, 0).UTC() }
	eng := sim.Engine{Workers: 2, Journal: j, Options: sim.Options{Window: window}}
	results, err := eng.Run(context.Background(), sim.Matrix([]sim.TraceSource{recs.Source("W")}, preds, eng.Options))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]map[int]int{}
	for _, ev := range events {
		if ev.Kind != "window" {
			continue
		}
		index, _ := ev.Num("index")
		if seen[ev.Predictor] == nil {
			seen[ev.Predictor] = map[int]int{}
		}
		seen[ev.Predictor][int(index)]++
		final, _ := ev.Fields["final"].(bool)
		if partial := int(index) == full; final != partial {
			t.Errorf("%s window %d: final = %v, want %v", ev.Predictor, int(index), final, partial)
		}
	}
	for _, res := range results {
		if len(res.Stats.Windows) != full+1 {
			t.Fatalf("%s: %d windows, want %d full and 1 partial", res.Predictor, len(res.Stats.Windows), full)
		}
		idx := seen[res.Predictor]
		if len(idx) != len(res.Stats.Windows) {
			t.Errorf("%s: journal holds %d window indices, want %d", res.Predictor, len(idx), len(res.Stats.Windows))
		}
		for i, n := range idx {
			if n != 1 {
				t.Errorf("%s: window %d journaled %d times, want once", res.Predictor, i, n)
			}
		}
	}
}
