package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"sync"
)

// FlightSchema tags every flight-recorder dump: a bounded ring of the
// most recent journal records plus the drift-detector states, cut when
// a change-point alarm fires or on demand (SIGQUIT). The embedded
// records are verbatim bfbp.journal.v1 lines, so a dump round-trips
// through the same tooling as a journal file (cmd/journal flight).
const FlightSchema = "bfbp.flight.v1"

// FlightRecorder keeps the last depth journal lines in a fixed ring.
// It implements io.Writer so it can sit as a tee target on a Journal's
// writer: every line the journal emits lands in the ring with no
// coupling between the two types, and partial writes are buffered
// until their newline arrives. Lines can also be fed directly with
// Add (the drift monitor records live window samples this way).
//
// All methods are safe for concurrent use and nil-safe. Memory is
// bounded by depth: the ring holds at most depth line strings and the
// recorder starts no goroutines.
type FlightRecorder struct {
	mu      sync.Mutex
	depth   int
	ring    []string
	next    int
	size    int
	total   uint64
	partial []byte
}

// NewFlightRecorder builds a ring of depth lines (clamped to at least
// 1; 0 means 256).
func NewFlightRecorder(depth int) *FlightRecorder {
	if depth == 0 {
		depth = 256
	}
	if depth < 1 {
		depth = 1
	}
	return &FlightRecorder{depth: depth, ring: make([]string, depth)}
}

// Add appends one record line to the ring, evicting the oldest when
// full. Trailing newlines are trimmed; empty lines are dropped.
// Nil-safe.
func (f *FlightRecorder) Add(line string) {
	if f == nil {
		return
	}
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	if line == "" {
		return
	}
	f.mu.Lock()
	f.ring[f.next] = line
	f.next = (f.next + 1) % f.depth
	if f.size < f.depth {
		f.size++
	}
	f.total++
	f.mu.Unlock()
}

// Write implements io.Writer for journal tee-ing: the byte stream is
// split on newlines, each complete line lands in the ring, and a
// trailing fragment waits for the rest of its line. Always reports
// full-length success. Nil-safe.
func (f *FlightRecorder) Write(p []byte) (int, error) {
	if f == nil {
		return len(p), nil
	}
	f.mu.Lock()
	buf := append(f.partial, p...)
	f.partial = nil
	f.mu.Unlock()
	for {
		i := bytes.IndexByte(buf, '\n')
		if i < 0 {
			break
		}
		f.Add(string(buf[:i]))
		buf = buf[i+1:]
	}
	if len(buf) > 0 {
		f.mu.Lock()
		f.partial = append(f.partial, buf...)
		f.mu.Unlock()
	}
	return len(p), nil
}

// Records returns the retained lines oldest-first. Nil-safe.
func (f *FlightRecorder) Records() []string {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, f.size)
	start := f.next - f.size
	if start < 0 {
		start += f.depth
	}
	for i := 0; i < f.size; i++ {
		out = append(out, f.ring[(start+i)%f.depth])
	}
	return out
}

// Len returns the number of lines currently held; Total the number
// ever recorded (Total - Len have been evicted). Nil-safe.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Total returns the number of lines ever recorded. Nil-safe.
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// FlightDetector pairs a detector's series key ("SERV1/bf-tage-10
// mpki") with its state at dump time.
type FlightDetector struct {
	Key   string     `json:"key"`
	State DriftState `json:"state"`
}

// FlightDump is the bfbp.flight.v1 document: why it was cut, the alarm
// that cut it (absent for on-demand dumps), every detector's state,
// and the most recent journal records oldest-first as raw lines.
type FlightDump struct {
	Schema string `json:"schema"`
	// Reason is "alarm" for drift-triggered dumps, "signal" for
	// SIGQUIT, "close" for end-of-run dumps.
	Reason string `json:"reason"`
	// AlarmKey and Alarm identify the detector and event that cut an
	// alarm dump.
	AlarmKey  string            `json:"alarm_key,omitempty"`
	Alarm     *DriftEvent       `json:"alarm,omitempty"`
	Detectors []FlightDetector  `json:"detectors,omitempty"`
	Evicted   uint64            `json:"evicted"`
	Records   []json.RawMessage `json:"records"`
}

// Snapshot assembles a dump document from the current ring contents.
// Nil-safe (returns an empty schema-stamped dump).
func (f *FlightRecorder) Snapshot(reason string, alarmKey string, alarm *DriftEvent, detectors []FlightDetector) FlightDump {
	d := FlightDump{
		Schema:    FlightSchema,
		Reason:    reason,
		AlarmKey:  alarmKey,
		Alarm:     alarm,
		Detectors: detectors,
	}
	recs := f.Records()
	d.Records = make([]json.RawMessage, 0, len(recs))
	for _, line := range recs {
		d.Records = append(d.Records, json.RawMessage(line))
	}
	d.Evicted = f.Total() - uint64(len(recs))
	return d
}

// Render marshals a dump as indented JSON. The document is built in
// memory first so a failed write never leaves truncated JSON behind a
// successful return.
func (d FlightDump) Render(w io.Writer) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadFlightDump parses a bfbp.flight.v1 document, rejecting foreign
// schemas and anything but whitespace after the document (the tail of
// an overwritten longer dump, say).
func ReadFlightDump(r io.Reader) (FlightDump, error) {
	var d FlightDump
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return d, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return d, errors.New("flight dump: trailing data after the document")
	}
	if d.Schema != FlightSchema {
		return d, &FlightSchemaError{Got: d.Schema}
	}
	return d, nil
}

// FlightSchemaError reports a dump whose schema field is not
// bfbp.flight.v1.
type FlightSchemaError struct{ Got string }

func (e *FlightSchemaError) Error() string {
	return "flight dump schema " + e.Got + ", want " + FlightSchema
}
