package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// TraceSchema tags every execution-trace file. The format is the Chrome
// trace-event JSON object form — {"schema": ..., "traceEvents": [...]}
// — loadable directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Consumers should dispatch on the top-level "schema"
// field so the format can evolve without breaking readers.
const TraceSchema = "bfbp.trace.v1"

// tracePID is the pid stamped on every event: the tracer models one
// process whose tids are logical lanes (0 = the engine/suite lane,
// 1..N = worker lanes), not OS threads.
const tracePID = 1

// Tracer records hierarchical execution spans and streams them as
// Chrome trace-event JSON. Span IDs are assigned from a deterministic
// counter (1, 2, 3, ... in start order) and timestamps come from one
// monotonic clock captured at construction, so a single-threaded run
// produces byte-identical output under a pinned Clock.
//
// A nil *Tracer is valid and inert: StartSpan returns a nil *Span,
// every *Span method is a nil-safe no-op, and nothing allocates — the
// instrumented hot paths stay zero-alloc when tracing is off.
//
// Emission is safe for concurrent use; individual Spans are not (each
// span belongs to the goroutine that started it).
type Tracer struct {
	// Clock returns the elapsed time since the tracer's epoch; it
	// exists so tests can pin timestamps. Set it before the tracer is
	// shared between goroutines. Nil defaults to monotonic
	// time.Since(construction).
	Clock func() time.Duration

	start    time.Time
	nextID   atomic.Uint64
	inFlight atomic.Int64

	mu     sync.Mutex
	buf    *bufio.Writer
	events int
	closed bool
	err    error
}

// NewTracer returns a tracer streaming bfbp.trace.v1 events to w. The
// JSON document header is written immediately and each event is flushed
// as it is emitted, so a trace of a crashed or cancelled run is still
// loadable (Perfetto tolerates the missing footer); Close writes the
// closing brackets for a fully valid document.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{start: time.Now(), buf: bufio.NewWriter(w)}
	if _, err := t.buf.WriteString(`{"schema":"` + TraceSchema + `","displayTimeUnit":"ms","traceEvents":[`); err != nil {
		t.err = err
	}
	return t
}

// InFlight returns the number of started-but-unended spans, for
// heartbeat lines. Nil-safe.
func (t *Tracer) InFlight() int64 {
	if t == nil {
		return 0
	}
	return t.inFlight.Load()
}

// Events returns the number of events written so far. Nil-safe.
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// now returns the elapsed time since the tracer epoch.
func (t *Tracer) now() time.Duration {
	if t.Clock != nil {
		return t.Clock()
	}
	return time.Since(t.start)
}

// micros converts a duration to the float microseconds of the trace
// format ("ts"/"dur" are doubles in Chrome trace events).
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// traceEvent is one Chrome trace-event object. Field order here is
// emission order; Args maps marshal with sorted keys, so events are
// deterministic for deterministic content.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// emit appends one event to the stream. Marshal or write failures are
// sticky: the first is retained and later events are dropped.
func (t *Tracer) emit(ev traceEvent) {
	line, err := json.Marshal(ev)
	if err != nil {
		t.mu.Lock()
		if t.err == nil {
			t.err = err
		}
		t.mu.Unlock()
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil || t.closed {
		return
	}
	sep := "\n"
	if t.events > 0 {
		sep = ",\n"
	}
	t.events++
	if _, err := t.buf.WriteString(sep); err != nil {
		t.err = err
		return
	}
	if _, err := t.buf.Write(line); err != nil {
		t.err = err
		return
	}
	if err := t.buf.Flush(); err != nil {
		t.err = err
	}
}

// ThreadName emits a metadata event naming a tid lane ("suite",
// "worker 3") so Perfetto labels the timeline rows.
func (t *Tracer) ThreadName(tid int64, name string) {
	if t == nil {
		return
	}
	t.emit(traceEvent{Name: "thread_name", Ph: "M", PID: tracePID, TID: tid,
		Args: map[string]any{"name": name}})
}

// ProcessName emits a metadata event naming the process row.
func (t *Tracer) ProcessName(name string) {
	if t == nil {
		return
	}
	t.emit(traceEvent{Name: "process_name", Ph: "M", PID: tracePID, TID: 0,
		Args: map[string]any{"name": name}})
}

// Counter emits a "C" phase (counter-track) sample: Perfetto renders
// one graph track named name on the process row, with one series per
// values key. Samples share the tracer's clock, so counter tracks line
// up with the span timeline — this is how windowed MPKI, throughput,
// and heap series render as graphs alongside the execution spans.
// Values maps marshal with sorted keys, so emission is deterministic.
// Nil-safe.
func (t *Tracer) Counter(name string, values map[string]float64) {
	if t == nil || len(values) == 0 {
		return
	}
	args := make(map[string]any, len(values))
	for k, v := range values {
		args[k] = v
	}
	t.emit(traceEvent{Name: name, Ph: "C", TS: micros(t.now()),
		PID: tracePID, TID: 0, Args: args})
}

// StartSpan opens a root span of the given kind on timeline lane tid.
// Kind is the aggregation key (suite, run, batch, ...); name is the
// Perfetto slice label. Nil-safe: a nil tracer returns a nil span.
func (t *Tracer) StartSpan(kind, name string, tid int64) *Span {
	if t == nil {
		return nil
	}
	return t.open(kind, name, tid, 0)
}

func (t *Tracer) open(kind, name string, tid int64, parent uint64) *Span {
	s := &Span{
		t:      t,
		id:     t.nextID.Add(1),
		parent: parent,
		kind:   kind,
		name:   name,
		tid:    tid,
		start:  t.now(),
	}
	t.inFlight.Add(1)
	return s
}

// Span is one timed slice of execution. Spans nest: Child opens a
// sub-span on the same lane, ChildTID on another lane (the engine hangs
// per-worker run spans off the suite span this way). Every method is
// nil-safe so instrumented code holds optional spans without branching.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	kind   string
	name   string
	tid    int64
	start  time.Duration
	attrs  map[string]any
}

// ID returns the span's deterministic identifier — the value journal
// events carry in their "span" field. A nil span has ID 0 (rendered as
// an absent field by omitempty).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Child opens a sub-span on the same timeline lane.
func (s *Span) Child(kind, name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.open(kind, name, s.tid, s.id)
}

// ChildTID opens a sub-span on another timeline lane, for work handed
// to a different logical worker.
func (s *Span) ChildTID(kind, name string, tid int64) *Span {
	if s == nil {
		return nil
	}
	return s.t.open(kind, name, tid, s.id)
}

// Attr attaches a key/value pair emitted in the span's args object.
// Returns s for chaining; nil-safe. Not safe for concurrent use on one
// span (spans are goroutine-local).
func (s *Span) Attr(key string, v any) *Span {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
	return s
}

// End closes the span, emits its complete ("ph":"X") event, and
// returns the measured duration. Nil-safe (returns 0).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := s.t.now() - s.start
	if d < 0 {
		d = 0
	}
	s.t.inFlight.Add(-1)
	args := s.attrs
	if args == nil {
		args = make(map[string]any, 2)
	}
	args["span"] = s.id
	if s.parent != 0 {
		args["parent"] = s.parent
	}
	dur := micros(d)
	s.t.emit(traceEvent{Name: s.name, Cat: s.kind, Ph: "X", TS: micros(s.start),
		Dur: &dur, PID: tracePID, TID: s.tid, Args: args})
	return d
}

// Err returns the first emission error, if any. Nil-safe.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close writes the document footer and flushes. Further events are
// dropped. It does not close the underlying writer, which the tracer
// does not own. Nil-safe and idempotent.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.err != nil {
		return t.err
	}
	if _, err := t.buf.WriteString("\n]}\n"); err != nil {
		t.err = err
		return t.err
	}
	if err := t.buf.Flush(); err != nil {
		t.err = err
	}
	return t.err
}
