package sim

import (
	"bufio"
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bfbp/internal/obs"
	"bfbp/internal/workload"
)

// traceDoc decodes a sealed bfbp.trace.v1 file for assertions.
type traceDoc struct {
	Schema string `json:"schema"`
	Events []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// A traced engine run must produce nested suite → run → batch spans
// whose IDs the journal events reference, so the two artifacts join.
func TestEngineTraceJournalCorrelation(t *testing.T) {
	var traceBuf, journalBuf strings.Builder
	tr := obs.NewTracer(&traceBuf)
	// Both workers read the clock, so the fake one must be atomic.
	var tick atomic.Int64
	tr.Clock = func() time.Duration { return time.Duration(tick.Add(int64(10 * time.Microsecond))) }
	j := obs.NewJournal(&journalBuf)
	j.Clock = func() time.Time { return time.Unix(0, 0).UTC() }

	eng := Engine{Workers: 2, Journal: j, Tracer: tr}
	intSpec, ok1 := workload.ByName("INT1")
	mmSpec, ok2 := workload.ByName("MM1")
	if !ok1 || !ok2 {
		t.Fatal("INT1/MM1 missing")
	}
	jobs := Matrix(
		[]TraceSource{intSpec.Source(20_000), mmSpec.Source(20_000)},
		[]PredictorSpec{{Name: "toy", New: func() Predictor { return &toyShare{} }}},
		Options{Window: 5_000},
	)
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var doc traceDoc
	if err := json.Unmarshal([]byte(traceBuf.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, traceBuf.String())
	}
	if doc.Schema != obs.TraceSchema {
		t.Fatalf("schema %q, want %q", doc.Schema, obs.TraceSchema)
	}

	// Collect spans by category and the id -> parent links.
	spans := map[uint64]string{}  // id -> cat
	parent := map[uint64]uint64{} // id -> parent id
	var suiteID uint64
	runIDs := map[uint64]bool{}
	for _, ev := range doc.Events {
		if ev.Ph != "X" {
			continue
		}
		id := uint64(ev.Args["span"].(float64))
		spans[id] = ev.Cat
		if p, ok := ev.Args["parent"].(float64); ok {
			parent[id] = uint64(p)
		}
		switch ev.Cat {
		case "suite":
			suiteID = id
			if ev.TID != 0 {
				t.Errorf("suite span on lane %d, want 0", ev.TID)
			}
		case "run":
			runIDs[id] = true
			if ev.TID < 1 {
				t.Errorf("run span on lane %d, want a worker lane >= 1", ev.TID)
			}
		}
	}
	if suiteID == 0 || len(runIDs) != 2 {
		t.Fatalf("want 1 suite and 2 run spans, got suite=%d runs=%d", suiteID, len(runIDs))
	}
	batches := 0
	for id, cat := range spans {
		switch cat {
		case "run":
			if parent[id] != suiteID {
				t.Errorf("run span %d has parent %d, want suite %d", id, parent[id], suiteID)
			}
		case "batch":
			batches++
			if !runIDs[parent[id]] {
				t.Errorf("batch span %d has parent %d, not a run span", id, parent[id])
			}
		}
	}
	if batches == 0 {
		t.Fatal("no batch spans recorded")
	}

	// Every span-tagged journal event must reference a span in the
	// trace, and run_finish/suite_finish must be tagged.
	tagged := map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(journalBuf.String()))
	for sc.Scan() {
		var ev struct {
			Event string   `json:"event"`
			Span  *float64 `json:"span"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Span == nil {
			continue
		}
		tagged[ev.Event]++
		if _, ok := spans[uint64(*ev.Span)]; !ok {
			t.Errorf("journal %s references span %v absent from trace", ev.Event, *ev.Span)
		}
	}
	if tagged["run_finish"] != 2 || tagged["suite_finish"] != 1 || tagged["window"] == 0 {
		t.Fatalf("journal span tags incomplete: %v", tagged)
	}
}
