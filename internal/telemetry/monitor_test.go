package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"bfbp/internal/obs"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

// driveWindows feeds a two-phase MPKI series through the monitor as
// window-close events for one (trace, predictor) cell.
func driveWindows(m *Monitor, trc, pred string, series []float64) {
	for i, mpki := range series {
		// Window stats that reproduce the requested MPKI exactly:
		// mispredicts per 1000 instructions.
		m.Observe(sim.WindowEvent{
			Trace:        trc,
			Predictor:    pred,
			Index:        i,
			Branches:     1000,
			Instructions: 1000,
			Mispredicts:  uint64(mpki),
			MPKI:         mpki,
		})
	}
}

func twoPhase(a float64, n1 int, b float64, n2 int) []float64 {
	out := make([]float64, 0, n1+n2)
	for i := 0; i < n1; i++ {
		out = append(out, a)
	}
	for i := 0; i < n2; i++ {
		out = append(out, b)
	}
	return out
}

// phaseWindows and phaseWindow size the two-phase trace runPhaseSuite
// replays: fifteen windows of an always-taken branch, then fifteen in
// which the branch alternates.
const (
	phaseWindows = 30
	phaseWindow  = 1000
)

// runPhaseSuite runs the static predictors named by takens over one
// two-phase trace on a single-worker engine attached to tel, with one
// window per phaseWindow branches. Static-taken's MPKI steps up from 0
// at window 15; static-not-taken's steps down.
func runPhaseSuite(t *testing.T, tel *T, takens ...bool) {
	t.Helper()
	recs := make(trace.Slice, phaseWindows*phaseWindow)
	for i := range recs {
		recs[i] = trace.Record{PC: 0x400, Target: 0x800, Instret: 4,
			Taken: i < len(recs)/2 || i%2 == 0}
	}
	var preds []sim.PredictorSpec
	for _, taken := range takens {
		taken := taken
		newP := func() sim.Predictor { return &sim.StaticPredictor{Direction: taken} }
		preds = append(preds, sim.PredictorSpec{Name: newP().Name(), New: newP})
	}
	eng := sim.Engine{Workers: 1, Options: sim.Options{Window: phaseWindow}}
	tel.Attach(&eng)
	jobs := sim.Matrix([]sim.TraceSource{recs.Source("PHASE")}, preds, eng.Options)
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
}

// windowKey identifies one window record of a journal or flight dump.
type windowKey struct {
	Trace     string `json:"trace"`
	Predictor string `json:"predictor"`
	Index     int    `json:"index"`
}

// dumpWindows decodes a flight dump and returns its window records.
func dumpWindows(t *testing.T, path string) (obs.FlightDump, []windowKey) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dump, err := obs.ReadFlightDump(f)
	if err != nil {
		t.Fatal(err)
	}
	var windows []windowKey
	for _, rec := range dump.Records {
		var obj struct {
			Schema string `json:"schema"`
			Event  string `json:"event"`
			windowKey
		}
		if err := json.Unmarshal(rec, &obj); err != nil {
			t.Fatalf("embedded record %s: %v", rec, err)
		}
		if obj.Schema != obs.JournalSchema {
			t.Fatalf("embedded record schema = %v", obj.Schema)
		}
		if obj.Event == "window" {
			windows = append(windows, obj.windowKey)
		}
	}
	return dump, windows
}

// An MPKI level shift in a real engine run fires a drift alarm through
// the full telemetry stack: the journal gets a drift event, the trace
// gets counter tracks and an instant, and a flight dump lands on disk
// with the triggering alarm — and the window that tripped it, since
// the engine journals each window before the monitor sees it.
func TestMonitorAlarmPath(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	tracePath := filepath.Join(dir, "run.trace.json")
	flight := filepath.Join(dir, "flight.json")
	tel, err := Start(Config{
		JournalPath: journal,
		TracePath:   tracePath,
		Drift:       true,
		FlightPath:  flight,
		FlightDepth: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tel.Monitor == nil {
		t.Fatal("Drift config did not build a monitor")
	}
	runPhaseSuite(t, tel, true)
	if got := tel.Monitor.Alarms(); got == 0 {
		t.Fatal("level shift fired no alarms")
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}

	jb, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var drifts int
	for _, line := range strings.Split(strings.TrimSpace(string(jb)), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if obj["event"] == "drift" {
			drifts++
			if obj["metric"] != "mpki" || obj["trace"] != "PHASE" || obj["predictor"] != "static-taken" {
				t.Fatalf("drift event fields = %v", obj)
			}
			if drifts == 1 && obj["direction"] != "up" {
				t.Fatalf("first drift direction = %v, want up", obj["direction"])
			}
		}
	}
	if drifts == 0 {
		t.Fatal("journal has no drift events")
	}

	tb, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb, &doc); err != nil {
		t.Fatal(err)
	}
	var counters, instants int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "C":
			if ev.Name == "mpki" {
				counters++
				if _, ok := ev.Args["PHASE/static-taken"].(float64); !ok {
					t.Fatalf("mpki counter args = %v", ev.Args)
				}
			}
		case "i":
			if ev.Cat == "drift" {
				instants++
			}
		}
	}
	if counters != phaseWindows {
		t.Fatalf("trace has %d mpki counter events, want one per window (%d)", counters, phaseWindows)
	}
	if instants == 0 {
		t.Fatal("trace has no drift instant events")
	}

	dump, windows := dumpWindows(t, flight)
	if dump.Reason != "alarm" || dump.Alarm == nil {
		t.Fatalf("dump header = reason %q alarm %+v", dump.Reason, dump.Alarm)
	}
	if !strings.Contains(dump.AlarmKey, "PHASE/static-taken mpki") {
		t.Fatalf("dump alarm key = %q", dump.AlarmKey)
	}
	if len(dump.Detectors) == 0 || dump.Detectors[0].State.Alarms == 0 {
		t.Fatalf("dump detectors = %+v", dump.Detectors)
	}
	// The detector sees every window from index 0, so the alarm's
	// sample number is the index of the window that tripped it.
	trigger := windowKey{"PHASE", "static-taken", dump.Alarm.Sample}
	found := false
	for _, w := range windows {
		found = found || w == trigger
	}
	if !found {
		t.Fatalf("dump lacks the triggering window %+v; windows %v", trigger, windows)
	}
}

// Each closed window is journaled exactly once, live, so a flight dump
// cut after a finished multi-cell suite holds every window once — not
// a live copy plus a run-end copy.
func TestFlightDumpJournalsEachWindowOnce(t *testing.T) {
	dir := t.TempDir()
	flight := filepath.Join(dir, "flight.json")
	tel, err := Start(Config{
		JournalPath: filepath.Join(dir, "run.jsonl"),
		Drift:       true,
		FlightPath:  flight,
		FlightDepth: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	runPhaseSuite(t, tel, true, false)
	tel.Monitor.dump("signal", "", nil)
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	_, windows := dumpWindows(t, flight)
	seen := map[windowKey]bool{}
	for _, w := range windows {
		if seen[w] {
			t.Errorf("window %+v appears twice in the flight dump", w)
		}
		seen[w] = true
	}
	if len(seen) != 2*phaseWindows {
		t.Fatalf("dump holds %d distinct windows, want %d", len(seen), 2*phaseWindows)
	}
}

// Drift metrics surface on the registry's Prometheus scrape.
func TestMonitorMetrics(t *testing.T) {
	tel, err := Start(Config{Drift: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	driveWindows(tel.Monitor, "INT1", "gshare", twoPhase(2, 12, 20, 12))
	var buf bytes.Buffer
	if err := tel.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !regexp.MustCompile(`(?m)^bfbp_drift_alarms_total\{series="INT1/gshare mpki"\} [1-9]`).MatchString(text) {
		t.Fatalf("no alarm counted in\n%s", text)
	}
	if !strings.Contains(text, `bfbp_drift_baseline{series="INT1/gshare mpki"} `) {
		t.Fatalf("no baseline gauge in\n%s", text)
	}
}

// The monitor rides Attach: an engine run with windowed options feeds
// real window closes through the event subscriber.
func TestMonitorAttachedEngine(t *testing.T) {
	tel, err := Start(Config{Drift: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	var eng sim.Engine
	tel.Attach(&eng)
	if eng.OnEvent == nil {
		t.Fatal("Attach did not subscribe the monitor")
	}
}

// Alarms on several workers, and SIGQUIT, can dump at the same time.
// Every dump must land whole: after each burst the file parses as one
// bfbp.flight.v1 document with nothing after it, never a shorter dump
// written over the head of a longer one.
func TestConcurrentFlightDumps(t *testing.T) {
	flight := filepath.Join(t.TempDir(), "flight.json")
	tel, err := Start(Config{FlightPath: flight, FlightDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	alarm := obs.DriftEvent{Sample: 3, Value: 9, Baseline: 4, Score: 1.5, Direction: "up"}
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Growing the ring between snapshots, and alternating
				// alarm and signal dumps, makes documents differ in
				// length.
				ev := sim.WorkerState{Worker: g, State: "busy"}
				tel.Journal.Emit(ev.Kind(), ev)
				if g%2 == 0 {
					tel.Monitor.dump("signal", "", nil)
				} else {
					tel.Monitor.dump("alarm", "PHASE/static-taken mpki", &alarm)
				}
			}(g)
		}
		wg.Wait()
		b, err := os.ReadFile(flight)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(b) {
			t.Fatalf("round %d: dump file is not one JSON document:\n%s", round, b)
		}
		if _, err := obs.ReadFlightDump(bytes.NewReader(b)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
