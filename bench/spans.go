package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// spanLog keeps a traced run's spans in memory and writes them at exit
// as Chrome trace-event JSON, which Perfetto and chrome://tracing load.
// Spans nest by time on one lane (tid); each also records its id and
// its parent's id. Lane 0 holds the sequential legs; concurrent engine
// readers borrow lanes 1 and up.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	nextID uint64
	events []traceEvent
	lanes  []bool // lanes[i] is true while lane i+1 is borrowed
}

type span struct {
	log       *spanLog
	id        uint64
	parent    uint64
	tid       int
	cat, name string
	start     time.Time
}

// traceEvent is one Chrome trace event: a complete ("X") span or a
// metadata ("M") record naming a lane.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// start opens a span under parent (nil for a root) on lane tid.
func (l *spanLog) start(parent *span, tid int, cat, name string) *span {
	l.mu.Lock()
	l.nextID++
	s := &span{log: l, id: l.nextID, tid: tid, cat: cat, name: name}
	l.mu.Unlock()
	if parent != nil {
		s.parent = parent.id
	}
	s.start = time.Now()
	return s
}

// end closes the span with attributes given as key, value pairs and
// returns its duration.
func (s *span) end(kv ...any) time.Duration {
	d := time.Since(s.start)
	args := map[string]any{"id": s.id}
	if s.parent != 0 {
		args["parent"] = s.parent
	}
	for i := 0; i+1 < len(kv); i += 2 {
		args[fmt.Sprint(kv[i])] = kv[i+1]
	}
	l := s.log
	l.mu.Lock()
	l.events = append(l.events, traceEvent{
		Name: s.name, Cat: s.cat, Ph: "X", PID: 1, TID: s.tid, Args: args,
		TS: micros(s.start.Sub(l.origin)), Dur: micros(d),
	})
	l.mu.Unlock()
	return d
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// borrow takes the lowest free lane for a concurrent reader; give it
// back with the returned function.
func (l *spanLog) borrow() (tid int, release func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := 0
	for i < len(l.lanes) && l.lanes[i] {
		i++
	}
	if i == len(l.lanes) {
		l.lanes = append(l.lanes, false)
	}
	l.lanes[i] = true
	return i + 1, func() {
		l.mu.Lock()
		l.lanes[i] = false
		l.mu.Unlock()
	}
}

// write emits the spans with lane names.
func (l *spanLog) write(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	meta := []traceEvent{
		{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "bench"}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: 0, Args: map[string]any{"name": "legs"}},
	}
	for i := 1; i <= len(l.lanes); i++ {
		meta = append(meta, traceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: i,
			Args: map[string]any{"name": fmt.Sprintf("engine reader %d", i)}})
	}
	return json.NewEncoder(w).Encode(struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}{"ns", append(meta, l.events...)})
}
