package journalq

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"bfbp/internal/obs"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

// Phase geometry of driftJournal's trace: thirty full windows of one
// branch, alternating for the first half and taken for the second,
// then a partial window of half the size in which it is not taken. A
// detector fed the partial window would alarm on it.
const (
	phaseWindows = 30
	phaseWindow  = 1000
)

// driftJournal runs static-taken and static-not-taken over the
// two-phase trace on a 2-worker engine with windows, journaling into
// memory, and returns the journal and the results.
func driftJournal(t *testing.T) ([]Event, []sim.RunResult) {
	t.Helper()
	const full = phaseWindows * phaseWindow
	recs := make(trace.Slice, full+phaseWindow/2)
	for i := range recs {
		taken := i < full
		if i < full/2 {
			taken = i%2 == 0
		}
		recs[i] = trace.Record{PC: 0x400, Target: 0x800, Instret: 4, Taken: taken}
	}
	var preds []sim.PredictorSpec
	for _, taken := range []bool{true, false} {
		newP := func() sim.Predictor { return &sim.StaticPredictor{Direction: taken} }
		preds = append(preds, sim.PredictorSpec{Name: newP().Name(), New: newP})
	}
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	j.Clock = func() time.Time { return time.Unix(0, 0).UTC() }
	eng := sim.Engine{Workers: 2, Journal: j, Options: sim.Options{Window: phaseWindow}}
	jobs := sim.Matrix([]sim.TraceSource{recs.Source("PHASE")}, preds, eng.Options)
	results, err := eng.Run(context.Background(), jobs)
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
	return events, results
}

// The drift rows of a summary are what a detector finds in each run's
// window series, the partial window left out — exactly what a detector
// fed from Stats.Windows finds — and each window is journaled once,
// the partial one marked final.
func TestSummarizeDriftFromWindows(t *testing.T) {
	events, results := driftJournal(t)

	type series struct{ trace, predictor string }
	var want []DriftLine
	for _, res := range results {
		wins := res.Stats.Windows
		if len(wins) != phaseWindows+1 {
			t.Fatalf("%s: %d windows, want %d full and 1 partial", res.Predictor, len(wins), phaseWindows)
		}
		d := obs.NewDriftDetector()
		for i, w := range wins[:len(wins)-1] {
			if alarm, ok := d.Observe(w.MPKI()); ok {
				want = append(want, DriftLine{Trace: res.Trace, Predictor: res.Predictor, Metric: "mpki",
					Window: i, Value: alarm.Value, Baseline: alarm.Baseline, Direction: alarm.Direction})
			}
		}
	}
	if len(want) < 2 {
		t.Fatalf("reference detectors fired %d alarms, want one per predictor at least", len(want))
	}

	s := Summarize(events)
	// Two workers interleave the series, so compare per series.
	bySeries := func(rows []DriftLine) map[series][]DriftLine {
		m := map[series][]DriftLine{}
		for _, r := range rows {
			k := series{r.Trace, r.Predictor}
			m[k] = append(m[k], r)
		}
		return m
	}
	got, ref := bySeries(s.Drifts), bySeries(want)
	if len(got) != len(ref) {
		t.Fatalf("drift rows cover %d series, want %d:\n%+v", len(got), len(ref), s.Drifts)
	}
	for k, rows := range ref {
		if len(got[k]) != len(rows) {
			t.Fatalf("%v: %d drift rows %+v, want %+v", k, len(got[k]), got[k], rows)
		}
		for i := range rows {
			if got[k][i] != rows[i] {
				t.Errorf("%v row %d = %+v, want %+v", k, i, got[k][i], rows[i])
			}
		}
	}

	seen := map[series]map[int]int{}
	for _, ev := range events {
		if ev.Kind != "window" {
			continue
		}
		k := series{ev.Trace, ev.Predictor}
		index, _ := ev.Num("index")
		if seen[k] == nil {
			seen[k] = map[int]int{}
		}
		seen[k][int(index)]++
		final, _ := ev.Fields["final"].(bool)
		if partial := int(index) == phaseWindows; final != partial {
			t.Errorf("%v window %d: final = %v, want %v", k, int(index), final, partial)
		}
	}
	for _, res := range results {
		idx := seen[series{res.Trace, res.Predictor}]
		if len(idx) != len(res.Stats.Windows) {
			t.Errorf("%s: journal holds %d window indices, want %d", res.Predictor, len(idx), len(res.Stats.Windows))
		}
		for i, n := range idx {
			if n != 1 {
				t.Errorf("%s: window %d journaled %d times, want once", res.Predictor, i, n)
			}
		}
	}

	// Both renderings carry the rows: the text and the JSON shape of
	// journal summary -json.
	out := s.Render()
	for _, frag := range []string{"drift alarms:", "PHASE/static-taken mpki", "up", "down"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Drifts []DriftLine `json:"drifts"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Drifts) != len(s.Drifts) {
		t.Fatalf("JSON carries %d drift rows, want %d", len(decoded.Drifts), len(s.Drifts))
	}
}
