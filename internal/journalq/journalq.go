// Package journalq reads, filters, summarises, and diffs
// bfbp.journal.v1 files — the query layer behind cmd/journal. It
// parses the JSONL event stream back into typed records, keeping the
// raw line alongside the decoded common fields so filters can print
// events verbatim; and it joins two journals by (trace, predictor) to
// flag result drift between runs.
package journalq

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Schema is the journal line format this package understands.
const Schema = "bfbp.journal.v1"

// Event is one decoded journal line. The common fields every consumer
// dispatches on are promoted to struct fields; everything else stays in
// Fields (the full decoded object) and Raw (the verbatim line).
type Event struct {
	Kind      string // the "event" field
	Trace     string
	Predictor string
	Span      uint64 // 0 when the event carries no span tag
	Fields    map[string]any
	Raw       string
}

// Num returns the named numeric field (JSON numbers decode as float64)
// and whether it was present.
func (e Event) Num(name string) (float64, bool) {
	v, ok := e.Fields[name].(float64)
	return v, ok
}

// Read decodes every line of a bfbp.journal.v1 stream. Lines with a
// different schema are an error — the tool should not silently
// misinterpret foreign JSONL.
func Read(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		var fields map[string]any
		if err := json.Unmarshal([]byte(text), &fields); err != nil {
			return nil, fmt.Errorf("journalq: line %d: %w", line, err)
		}
		schema, _ := fields["schema"].(string)
		if schema != Schema {
			return nil, fmt.Errorf("journalq: line %d: schema %q, want %q", line, schema, Schema)
		}
		ev := Event{Fields: fields, Raw: text}
		ev.Kind, _ = fields["event"].(string)
		ev.Trace, _ = fields["trace"].(string)
		ev.Predictor, _ = fields["predictor"].(string)
		if span, ok := fields["span"].(float64); ok {
			ev.Span = uint64(span)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journalq: %w", err)
	}
	return out, nil
}

// Filter selects events; zero-valued fields match everything.
type Filter struct {
	Kind      string
	Trace     string
	Predictor string
	Span      uint64
}

// Match reports whether ev passes every set criterion.
func (f Filter) Match(ev Event) bool {
	if f.Kind != "" && ev.Kind != f.Kind {
		return false
	}
	if f.Trace != "" && ev.Trace != f.Trace {
		return false
	}
	if f.Predictor != "" && ev.Predictor != f.Predictor {
		return false
	}
	if f.Span != 0 && ev.Span != f.Span {
		return false
	}
	return true
}

// Apply returns the events matching f, in input order.
func (f Filter) Apply(events []Event) []Event {
	var out []Event
	for _, ev := range events {
		if f.Match(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// RunLine is one run_finish row of a summary. The json tags define the
// `journal summary -json` output shape.
type RunLine struct {
	Trace       string  `json:"trace"`
	Predictor   string  `json:"predictor"`
	Branches    uint64  `json:"branches"`
	Mispredicts uint64  `json:"mispredicts"`
	MPKI        float64 `json:"mpki"`
	Span        uint64  `json:"span,omitempty"`
}

// TableStatsLine is one tablestats row of a summary: a StateProbe
// sample of (trace, predictor) at a branch count, reduced to its bank
// count and mean occupancy.
type TableStatsLine struct {
	Trace     string  `json:"trace"`
	Predictor string  `json:"predictor"`
	Branch    uint64  `json:"branch"`
	Banks     int     `json:"banks"`
	MeanOcc   float64 `json:"mean_occupancy"`
}

// Summary aggregates one journal: per-kind event counts plus the
// run_finish results and table-state samples in journal order.
type Summary struct {
	Events     int              `json:"events"`
	ByKind     map[string]int   `json:"by_kind"`
	Runs       []RunLine        `json:"runs,omitempty"`
	TableStats []TableStatsLine `json:"tablestats,omitempty"`
}

// Summarize builds a Summary over events.
func Summarize(events []Event) Summary {
	s := Summary{Events: len(events), ByKind: map[string]int{}}
	for _, ev := range events {
		s.ByKind[ev.Kind]++
		switch ev.Kind {
		case "run_finish":
			rl := RunLine{Trace: ev.Trace, Predictor: ev.Predictor, Span: ev.Span}
			if v, ok := ev.Num("branches"); ok {
				rl.Branches = uint64(v)
			}
			if v, ok := ev.Num("mispredicts"); ok {
				rl.Mispredicts = uint64(v)
			}
			rl.MPKI, _ = ev.Num("mpki")
			s.Runs = append(s.Runs, rl)
		case "tablestats":
			tl := TableStatsLine{Trace: ev.Trace, Predictor: ev.Predictor}
			if v, ok := ev.Num("branch"); ok {
				tl.Branch = uint64(v)
			}
			banks, _ := ev.Fields["banks"].([]any)
			var live, entries float64
			for _, raw := range banks {
				bank, _ := raw.(map[string]any)
				if bank == nil {
					continue
				}
				tl.Banks++
				l, _ := bank["live"].(float64)
				e, _ := bank["entries"].(float64)
				live, entries = live+l, entries+e
			}
			if entries > 0 {
				tl.MeanOcc = live / entries
			}
			s.TableStats = append(s.TableStats, tl)
		}
	}
	return s
}

// Render formats the summary as aligned text.
func (s Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d events\n", s.Events)
	kinds := make([]string, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-22s %6d\n", k, s.ByKind[k])
	}
	if len(s.Runs) > 0 {
		fmt.Fprintf(&b, "%-10s %-18s %12s %12s %10s %8s\n", "trace", "predictor", "branches", "mispredicts", "MPKI", "span")
		for _, r := range s.Runs {
			fmt.Fprintf(&b, "%-10s %-18s %12d %12d %10.3f %8d\n", r.Trace, r.Predictor, r.Branches, r.Mispredicts, r.MPKI, r.Span)
		}
	}
	if len(s.TableStats) > 0 {
		fmt.Fprintf(&b, "table-state samples:\n")
		for _, t := range s.TableStats {
			fmt.Fprintf(&b, "  %-10s %-18s branch %10d  %2d banks  %5.1f%% occupied\n",
				t.Trace, t.Predictor, t.Branch, t.Banks, 100*t.MeanOcc)
		}
	}
	return b.String()
}

// Drift is one diverging (trace, predictor) cell between two journals.
type Drift struct {
	Trace     string
	Predictor string
	Field     string
	A, B      float64
}

// DiffReport is the result of comparing two journals' run_finish
// results by (trace, predictor) key.
type DiffReport struct {
	// OnlyA and OnlyB list "trace/predictor" keys present in one
	// journal but not the other.
	OnlyA, OnlyB []string
	// Drifts lists cells present in both whose results diverge.
	Drifts []Drift
}

// Clean reports whether the journals agree on every shared cell and
// cover the same cells.
func (d DiffReport) Clean() bool {
	return len(d.OnlyA) == 0 && len(d.OnlyB) == 0 && len(d.Drifts) == 0
}

// Render formats the report; a clean diff renders as one line.
func (d DiffReport) Render() string {
	if d.Clean() {
		return "journals agree: no drift\n"
	}
	var b strings.Builder
	for _, k := range d.OnlyA {
		fmt.Fprintf(&b, "only in A: %s\n", k)
	}
	for _, k := range d.OnlyB {
		fmt.Fprintf(&b, "only in B: %s\n", k)
	}
	for _, dr := range d.Drifts {
		fmt.Fprintf(&b, "drift %s/%s %s: %v -> %v\n", dr.Trace, dr.Predictor, dr.Field, dr.A, dr.B)
	}
	return b.String()
}

type runKey struct{ trace, predictor string }

// Diff compares run_finish results (and per-cell window series) of two
// journals. Counter fields — branches, instructions, mispredicts —
// must match exactly; MPKI may differ by up to tol (absolute) to
// absorb float formatting. Deterministic workloads with the same seed
// must produce a Clean report.
func Diff(a, b []Event, tol float64) DiffReport {
	var rep DiffReport
	ra, wa := index(a)
	rb, wb := index(b)
	keys := map[runKey]bool{}
	for k := range ra {
		keys[k] = true
	}
	for k := range rb {
		keys[k] = true
	}
	ordered := make([]runKey, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].trace != ordered[j].trace {
			return ordered[i].trace < ordered[j].trace
		}
		return ordered[i].predictor < ordered[j].predictor
	})
	for _, k := range ordered {
		ea, okA := ra[k]
		eb, okB := rb[k]
		name := k.trace + "/" + k.predictor
		switch {
		case !okA:
			rep.OnlyB = append(rep.OnlyB, name)
			continue
		case !okB:
			rep.OnlyA = append(rep.OnlyA, name)
			continue
		}
		for _, field := range []string{"branches", "instructions", "mispredicts"} {
			va, _ := ea.Num(field)
			vb, _ := eb.Num(field)
			if va != vb {
				rep.Drifts = append(rep.Drifts, Drift{k.trace, k.predictor, field, va, vb})
			}
		}
		va, _ := ea.Num("mpki")
		vb, _ := eb.Num("mpki")
		if math.Abs(va-vb) > tol {
			rep.Drifts = append(rep.Drifts, Drift{k.trace, k.predictor, "mpki", va, vb})
		}
		sa, sb := wa[k], wb[k]
		if len(sa) != len(sb) {
			rep.Drifts = append(rep.Drifts, Drift{k.trace, k.predictor, "windows", float64(len(sa)), float64(len(sb))})
			continue
		}
		for i := range sa {
			if math.Abs(sa[i]-sb[i]) > tol {
				rep.Drifts = append(rep.Drifts, Drift{k.trace, k.predictor, fmt.Sprintf("window[%d].mpki", i), sa[i], sb[i]})
			}
		}
	}
	return rep
}

// index maps (trace, predictor) to each cell's run_finish event and
// window MPKI series.
func index(events []Event) (map[runKey]Event, map[runKey][]float64) {
	runs := map[runKey]Event{}
	windows := map[runKey][]float64{}
	for _, ev := range events {
		k := runKey{ev.Trace, ev.Predictor}
		switch ev.Kind {
		case "run_finish":
			runs[k] = ev
		case "window":
			mpki, _ := ev.Num("mpki")
			windows[k] = append(windows[k], mpki)
		}
	}
	return runs, windows
}
