package analysis

import (
	"bytes"
	"strings"
	"testing"

	"bfbp/internal/predictor/bimodal"
	"bfbp/internal/trace"
)

// phaseTrace builds a two-phase synthetic trace: both phases run the
// same three branch sites, but site 0x300 flips from always-taken to
// alternating at the boundary — a site-level phase change a bimodal
// predictor feels immediately.
func phaseTrace(n1, n2 int) trace.Slice {
	var out trace.Slice
	emit := func(pc uint64, taken bool) {
		out = append(out, trace.Record{PC: pc, Target: pc + 64, Taken: taken, Instret: 4})
	}
	for i := 0; i < n1; i++ {
		emit(0x100, true)
		emit(0x200, i%2 == 0)
		emit(0x300, true)
	}
	for i := 0; i < n2; i++ {
		emit(0x100, true)
		emit(0x200, i%2 == 0)
		emit(0x300, i%2 == 0)
	}
	return out
}

func TestAnalyzePhasesSegmentsAndMovers(t *testing.T) {
	tr := phaseTrace(4000, 4000)
	rep, err := AnalyzePhases(bimodal.New(1<<12, 2), tr.Stream(), "synthetic", "bimodal", 600, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Branches != uint64(len(tr)) {
		t.Fatalf("branches = %d, want %d", rep.Branches, len(tr))
	}
	if len(rep.Segments) < 2 {
		t.Fatalf("got %d segments, want >= 2 (phase shift missed): %+v", len(rep.Segments), rep.Segments)
	}
	// Every alarm-closed segment must report its closing event, and
	// the final one must not.
	for i, s := range rep.Segments {
		last := i == len(rep.Segments)-1
		if (s.Alarm == nil) != last {
			t.Fatalf("segment %d alarm presence wrong (last=%v): %+v", i, last, s)
		}
	}
	// Window indices tile the series without gaps.
	next := 0
	var branches uint64
	for _, s := range rep.Segments {
		if s.FirstWindow != next {
			t.Fatalf("segment starts at window %d, want %d", s.FirstWindow, next)
		}
		next = s.LastWindow + 1
		branches += s.Branches
	}
	if branches != rep.Branches {
		t.Fatalf("segment branches sum %d != total %d", branches, rep.Branches)
	}
	// The second phase is worse: site 0x300 went from biased to
	// alternating.
	first, last := rep.Segments[0], rep.Segments[len(rep.Segments)-1]
	if last.MPKI() <= first.MPKI() {
		t.Fatalf("expected MPKI rise across phases, got %.3f -> %.3f", first.MPKI(), last.MPKI())
	}
	// The mover ranking must put the phase-changing site first.
	if len(rep.Movers) == 0 {
		t.Fatal("no movers reported")
	}
	if rep.Movers[0].PC != 0x300 {
		t.Fatalf("top mover = %#x, want 0x300: %+v", rep.Movers[0].PC, rep.Movers)
	}
	if rep.Movers[0].MaxRate <= rep.Movers[0].MinRate {
		t.Fatalf("top mover rates did not move: %+v", rep.Movers[0])
	}

	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"phases: bimodal on synthetic", "phase 0:", "drift", "0x300"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q:\n%s", frag, out)
		}
	}
}

// A stationary trace yields one segment and no movers.
func TestAnalyzePhasesStationary(t *testing.T) {
	tr := phaseTrace(6000, 0)
	rep, err := AnalyzePhases(bimodal.New(1<<12, 2), tr.Stream(), "flat", "bimodal", 600, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Segments) != 1 {
		t.Fatalf("stationary trace split into %d segments: %+v", len(rep.Segments), rep.Segments)
	}
	if len(rep.Movers) != 0 {
		t.Fatalf("stationary trace reported movers: %+v", rep.Movers)
	}
}

// Window 0 is a usage error.
func TestAnalyzePhasesRejectsZeroWindow(t *testing.T) {
	if _, err := AnalyzePhases(bimodal.New(1<<8, 2), trace.Slice{}.Stream(), "x", "y", 0, 0); err == nil {
		t.Fatal("window 0 accepted")
	}
}
