package sim

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"bfbp/internal/journalq"
	"bfbp/internal/obs"
	"bfbp/internal/workload"
)

// replayToy is an explained, state-probed predictor whose samples move
// every state-probe family: bank occupancy, tag-conflict evictions and
// weight saturation.
type replayToy struct {
	constExplainer
	updates uint64
}

func (r *replayToy) Update(pc uint64, taken bool, target uint64) { r.updates++ }

func (r *replayToy) ProbeState() TableStats {
	return TableStats{
		Predictor: r.Name(),
		Banks: []BankStats{{Bank: 1, Kind: "tagged", Entries: 1024,
			Live: int(r.updates % 1024), Allocs: r.updates / 3, Evictions: r.updates / 7}},
		Weights: []WeightStats{{Bank: 2, Name: "W0", Weights: 256, Saturated: int(r.updates % 256)}},
	}
}

// decodeEvent decodes one journal line into the event type of its kind.
func decodeEvent(t *testing.T, ev journalq.Event) Event {
	t.Helper()
	for _, zero := range Events() {
		if zero.Kind() != ev.Kind {
			continue
		}
		ptr := reflect.New(reflect.TypeOf(zero))
		if err := json.Unmarshal([]byte(ev.Raw), ptr.Interface()); err != nil {
			t.Fatalf("%s line %s: %v", ev.Kind, ev.Raw, err)
		}
		return ptr.Elem().Interface().(Event)
	}
	t.Fatalf("journal kind %q is not in Events()", ev.Kind)
	return nil
}

// The journal is the canonical record: feeding a journal's events back
// through a fresh EngineMetrics rebuilds the live Prometheus scrape,
// every line of it.
func TestJournalReplayMatchesLiveScrape(t *testing.T) {
	var buf strings.Builder
	j := obs.NewJournal(&buf)
	live := obs.NewRegistry()
	// One worker, so the metrics observe events in journal order and
	// float sums accumulate identically.
	eng := Engine{Workers: 1, Metrics: NewEngineMetrics(live), Journal: j}
	var sources []TraceSource
	for _, name := range []string{"INT2", "SERV1"} {
		s, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		sources = append(sources, s.Source(30_000))
	}
	newToy := func(taken bool) func() Predictor {
		return func() Predictor {
			return &replayToy{constExplainer: constExplainer{
				StaticPredictor: StaticPredictor{Direction: taken},
				p:               Provenance{Component: "adder", Confidence: 3, Threshold: 10},
			}}
		}
	}
	preds := []PredictorSpec{{Name: "taken", New: newToy(true)}, {Name: "not-taken", New: newToy(false)}}
	jobs := Matrix(sources, preds, Options{Warmup: 3_000, Window: 5_000, Explain: true, ProbeStateEvery: 8192})
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := journalq.Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	replayed := obs.NewRegistry()
	m := NewEngineMetrics(replayed)
	kinds := map[string]int{}
	for _, ev := range events {
		m.observe(decodeEvent(t, ev))
		kinds[ev.Kind]++
	}
	for _, k := range []string{"suite_start", "run_start", "run_finish", "window", "provenance", "tablestats", "suite_finish"} {
		if kinds[k] == 0 {
			t.Fatalf("journal has no %s events: %v", k, kinds)
		}
	}

	scrape := func(reg *obs.Registry) string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want, got := scrape(live), scrape(replayed)
	for _, frag := range []string{
		`bfbp_engine_runs_total{status="ok"} 4`,
		`bfbp_engine_run_seconds_count{predictor="taken"} 2`,
		`bfbp_mispredict_total{predictor="taken",cause="low_confidence"}`,
		`bfbp_table_occupancy{predictor="taken",bank="T1:tagged"}`,
		`bfbp_tag_conflicts_total{predictor="not-taken",bank="T1:tagged"}`,
		`bfbp_weight_saturation{predictor="taken",bank="W0"}`,
	} {
		if !strings.Contains(want, frag) {
			t.Errorf("live scrape missing %q", frag)
		}
	}
	// One type per metric kind: the explained, state-probed, metered
	// scrape carries only counters, gauges and summaries.
	for _, line := range strings.Split(want, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		switch typ := line[strings.LastIndexByte(line, ' ')+1:]; typ {
		case "counter", "gauge", "summary":
		default:
			t.Errorf("live scrape has a %s family: %s", typ, line)
		}
	}
	if got != want {
		wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("replayed scrape differs at line %d:\nlive:     %s\nreplayed: %s", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("replayed scrape has %d lines, live %d", len(gl), len(wl))
	}
}
