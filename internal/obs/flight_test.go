package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// The ring keeps exactly the last depth lines, oldest first, and
// counts evictions.
func TestFlightRingEviction(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Add(fmt.Sprintf(`{"i":%d}`, i))
	}
	recs := f.Records()
	want := []string{`{"i":6}`, `{"i":7}`, `{"i":8}`, `{"i":9}`}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
	if f.Len() != 4 || f.Total() != 10 {
		t.Fatalf("Len/Total = %d/%d, want 4/10", f.Len(), f.Total())
	}
}

// Write splits the byte stream on newlines and holds partial lines
// until completed — the property that makes the recorder a safe tee
// target for a journal's bufio-backed writer.
func TestFlightWriteSplitsLines(t *testing.T) {
	f := NewFlightRecorder(8)
	for _, chunk := range []string{`{"a":`, `1}` + "\n" + `{"b":2}`, "\n", "\n\n", `{"c":3}` + "\n"} {
		n, err := f.Write([]byte(chunk))
		if err != nil || n != len(chunk) {
			t.Fatalf("Write(%q) = %d, %v", chunk, n, err)
		}
	}
	recs := f.Records()
	want := []string{`{"a":1}`, `{"b":2}`, `{"c":3}`}
	if len(recs) != len(want) {
		t.Fatalf("got %v, want %v", recs, want)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
}

// The recorder is leak-free: no goroutines, and memory stays bounded
// by the ring depth however many lines flow through it.
func TestFlightRecorderLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()
	f := NewFlightRecorder(64)
	line := strings.Repeat("x", 200)
	for i := 0; i < 100_000; i++ {
		f.Add(line)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("recorder raised goroutine count %d -> %d", before, got)
	}
	if f.Len() != 64 {
		t.Fatalf("ring grew to %d entries, want 64", f.Len())
	}
	// Steady-state Add of an already-built line does not allocate
	// beyond the ring slot it replaces.
	allocs := testing.AllocsPerRun(1000, func() { f.Add(line) })
	if allocs != 0 {
		t.Fatalf("Add allocated %.1f times per op, want 0", allocs)
	}
}

// A journal teed into the recorder lands every emitted line in the
// ring verbatim, so dumps embed real bfbp.journal.v1 records.
func TestFlightJournalTee(t *testing.T) {
	var file bytes.Buffer
	f := NewFlightRecorder(16)
	j := NewJournal(teeWriter{&file, f})
	j.Emit("window", map[string]any{"trace": "SERV1", "predictor": "bimodal", "index": 0, "mpki": 4.5})
	j.Emit("drift", map[string]any{"trace": "SERV1", "predictor": "bimodal", "direction": "up"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs := f.Records()
	if len(recs) != 2 {
		t.Fatalf("ring holds %d records, want 2", len(recs))
	}
	fileLines := strings.Split(strings.TrimSpace(file.String()), "\n")
	for i, line := range fileLines {
		if recs[i] != line {
			t.Fatalf("ring record %d diverged from journal file:\n%s\n%s", i, recs[i], line)
		}
		var obj map[string]any
		if err := json.Unmarshal([]byte(recs[i]), &obj); err != nil {
			t.Fatalf("ring record %d is not valid JSON: %v", i, err)
		}
		if obj["schema"] != JournalSchema {
			t.Fatalf("ring record %d schema = %v", i, obj["schema"])
		}
	}
}

type teeWriter struct {
	a, b interface{ Write([]byte) (int, error) }
}

func (t teeWriter) Write(p []byte) (int, error) {
	if n, err := t.a.Write(p); err != nil {
		return n, err
	}
	return t.b.Write(p)
}

// Dumps carry the schema stamp, the triggering alarm, detector
// states, and the ring records; they round-trip through
// ReadFlightDump, which rejects foreign documents.
func TestFlightDumpRoundTrip(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		f.Add(fmt.Sprintf(`{"schema":"bfbp.journal.v1","event":"window","index":%d}`, i))
	}
	ev := DriftEvent{Sample: 5, Value: 9, Baseline: 4, Score: 1.2, Direction: "up"}
	dump := f.Snapshot("alarm", "SERV1/bimodal mpki", &ev,
		[]FlightDetector{{Key: "SERV1/bimodal mpki", State: DriftState{Samples: 6, Alarms: 1}}})
	var buf bytes.Buffer
	if err := dump.Render(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != FlightSchema || got.Reason != "alarm" || got.AlarmKey != "SERV1/bimodal mpki" {
		t.Fatalf("round-trip header = %+v", got)
	}
	if got.Alarm == nil || *got.Alarm != ev {
		t.Fatalf("alarm = %+v, want %+v", got.Alarm, ev)
	}
	if len(got.Records) != 4 || got.Evicted != 2 {
		t.Fatalf("records/evicted = %d/%d, want 4/2", len(got.Records), got.Evicted)
	}
	if len(got.Detectors) != 1 || got.Detectors[0].State.Samples != 6 {
		t.Fatalf("detectors = %+v", got.Detectors)
	}

	if _, err := ReadFlightDump(strings.NewReader(`{"schema":"bfbp.journal.v1"}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
}

// Nil recorders are fully inert.
func TestFlightNilSafety(t *testing.T) {
	var f *FlightRecorder
	f.Add("x")
	if n, err := f.Write([]byte("y\n")); n != 2 || err != nil {
		t.Fatalf("nil Write = %d, %v", n, err)
	}
	if f.Records() != nil || f.Len() != 0 || f.Total() != 0 {
		t.Fatal("nil recorder reported contents")
	}
	d := f.Snapshot("close", "", nil, nil)
	if d.Schema != FlightSchema || len(d.Records) != 0 {
		t.Fatalf("nil snapshot = %+v", d)
	}
}

// A dump file holding anything after its document — the tail of a
// longer dump another writer overwrote — is rejected, not read as the
// leading document.
func TestReadFlightDumpRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFlightRecorder(4).Snapshot("signal", "", nil, nil).Render(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.String()
	if _, err := ReadFlightDump(strings.NewReader(whole + "\n  \n")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	if _, err := ReadFlightDump(strings.NewReader(whole + `  "evicted": 0, "records": []}` + "\n")); err == nil {
		t.Fatal("trailing data accepted")
	}
}
