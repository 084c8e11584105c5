// Phase analysis: segment a run's windowed MPKI series at the change
// points a streaming drift detector finds, then attribute the shifts to
// the branch sites whose accuracy moves most between phases. It runs
// the same detector as `journal summary` does over a journal's window
// series, adding the per-PC attribution the journal does not carry.
package analysis

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"bfbp/internal/obs"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

// PhaseSegment is one detected phase: a run of consecutive windows
// with statistically stable MPKI.
type PhaseSegment struct {
	// FirstWindow and LastWindow are inclusive window indices.
	FirstWindow, LastWindow int
	Branches                uint64
	Instructions            uint64
	Mispredicts             uint64
	// Alarm is the drift event that closed the segment (nil for the
	// final segment, which ends with the trace).
	Alarm *obs.DriftEvent
}

// MPKI returns the segment's mispredictions per 1000 instructions.
func (s PhaseSegment) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Mispredicts) * 1000 / float64(s.Instructions)
}

// Windows returns the segment's window count.
func (s PhaseSegment) Windows() int { return s.LastWindow - s.FirstWindow + 1 }

// SiteShift is one branch site's accuracy movement across phases: its
// misprediction rates in the two phases where it behaves best and
// worst, weighted by how often it executes.
type SiteShift struct {
	PC    uint64
	Count uint64 // dynamic executions across the whole run
	// MinRate and MaxRate are the site's per-phase misprediction
	// rates at the extremes (phases where the site executes fewer
	// than siteMinCount times are ignored).
	MinRate, MaxRate float64
	// MinPhase and MaxPhase are the segment indices of those extremes.
	MinPhase, MaxPhase int
}

// Shift is the rate swing weighted by execution count — the ranking
// key: a site that moves 40 points and runs constantly outranks one
// that moves 90 points in a corner.
func (s SiteShift) Shift() float64 {
	return (s.MaxRate - s.MinRate) * float64(s.Count)
}

// PhaseReport is the result of AnalyzePhases: the detected segments of
// one (predictor, trace) run and the sites that move most across them.
type PhaseReport struct {
	Trace     string
	Predictor string
	Window    uint64
	Branches  uint64
	MPKI      float64
	Segments  []PhaseSegment
	// Movers are the top phase-sensitive sites, ranked by Shift()
	// descending. Empty when only one phase was detected.
	Movers []SiteShift
}

// siteMinCount is the per-phase execution floor below which a site's
// rate is considered too noisy to rank.
const siteMinCount = 32

// AnalyzePhases runs p over the trace with its own predict/update
// loop, closing an MPKI window every window branches, segmenting the
// window series with a drift detector, and accumulating per-PC counts
// per segment. topN bounds the Movers list (0 means 10).
func AnalyzePhases(p sim.Predictor, r trace.Reader, name, pred string, window uint64, topN int) (PhaseReport, error) {
	if window == 0 {
		return PhaseReport{}, errors.New("analysis: phase window must be non-zero")
	}
	if topN <= 0 {
		topN = 10
	}
	rep := PhaseReport{Trace: name, Predictor: pred, Window: window}
	det := obs.NewDriftDetector()

	type siteCount struct{ count, misp uint64 }
	// perPhase accumulates site stats for the phase being built;
	// phases collects the finished maps, one per segment.
	perPhase := map[uint64]*siteCount{}
	var phases []map[uint64]*siteCount
	var seg PhaseSegment
	var win sim.WindowStat
	winIndex := 0
	var totalInstr, totalMisp uint64

	closeSegment := func(alarm *obs.DriftEvent) {
		seg.LastWindow = winIndex - 1
		seg.Alarm = alarm
		rep.Segments = append(rep.Segments, seg)
		phases = append(phases, perPhase)
		perPhase = map[uint64]*siteCount{}
		seg = PhaseSegment{FirstWindow: winIndex}
	}

	br := trace.Batched(r)
	batch := make([]trace.Record, 4096)
	for {
		n, err := br.ReadBatch(batch)
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return rep, err
		}
		for _, rec := range batch[:n] {
			taken := p.Predict(rec.PC)
			miss := taken != rec.Taken
			p.Update(rec.PC, rec.Taken, rec.Target)
			rep.Branches++
			totalInstr += uint64(rec.Instret)
			seg.Branches++
			seg.Instructions += uint64(rec.Instret)
			win.Branches++
			win.Instructions += uint64(rec.Instret)
			if miss {
				totalMisp++
				seg.Mispredicts++
				win.Mispredicts++
			}
			sc := perPhase[rec.PC]
			if sc == nil {
				sc = &siteCount{}
				perPhase[rec.PC] = sc
			}
			sc.count++
			if miss {
				sc.misp++
			}
			if win.Branches == window {
				ev, fired := det.Observe(win.MPKI())
				win = sim.WindowStat{}
				winIndex++
				if fired {
					alarm := ev
					closeSegment(&alarm)
				}
			}
		}
	}
	if win.Branches > 0 {
		winIndex++
	}
	if seg.Branches > 0 || len(rep.Segments) == 0 {
		closeSegment(nil)
	}
	if totalInstr > 0 {
		rep.MPKI = float64(totalMisp) * 1000 / float64(totalInstr)
	}

	// Rank sites by their rate swing across phases. Only meaningful
	// with at least two phases.
	if len(phases) >= 2 {
		totals := map[uint64]uint64{}
		for _, ph := range phases {
			for pc, sc := range ph {
				totals[pc] += sc.count
			}
		}
		var movers []SiteShift
		for pc, count := range totals {
			s := SiteShift{PC: pc, Count: count, MinRate: 2}
			seen := 0
			for i, ph := range phases {
				sc := ph[pc]
				if sc == nil || sc.count < siteMinCount {
					continue
				}
				rate := float64(sc.misp) / float64(sc.count)
				if rate < s.MinRate {
					s.MinRate, s.MinPhase = rate, i
				}
				if rate > s.MaxRate {
					s.MaxRate, s.MaxPhase = rate, i
				}
				seen++
			}
			if seen >= 2 && s.MaxRate > s.MinRate {
				movers = append(movers, s)
			}
		}
		sort.Slice(movers, func(i, j int) bool {
			if movers[i].Shift() != movers[j].Shift() {
				return movers[i].Shift() > movers[j].Shift()
			}
			return movers[i].PC < movers[j].PC
		})
		if len(movers) > topN {
			movers = movers[:topN]
		}
		rep.Movers = movers
	}
	return rep, nil
}

// Render writes the report as an aligned text table.
func (rep PhaseReport) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "phases: %s on %s (window %d, %d branches, %.3f MPKI overall)\n",
		rep.Predictor, rep.Trace, rep.Window, rep.Branches, rep.MPKI); err != nil {
		return err
	}
	for i, s := range rep.Segments {
		line := fmt.Sprintf("  phase %d: windows %d..%d (%d), %.3f MPKI",
			i, s.FirstWindow, s.LastWindow, s.Windows(), s.MPKI())
		if s.Alarm != nil {
			line += fmt.Sprintf("  [ended by %s drift: %.3f -> %.3f]",
				s.Alarm.Direction, s.Alarm.Baseline, s.Alarm.Value)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	if len(rep.Movers) > 0 {
		if _, err := fmt.Fprintln(w, "  top phase-sensitive sites:"); err != nil {
			return err
		}
		for _, m := range rep.Movers {
			if _, err := fmt.Fprintf(w, "    pc %#x: %d execs, rate %.3f (phase %d) -> %.3f (phase %d)\n",
				m.PC, m.Count, m.MinRate, m.MinPhase, m.MaxRate, m.MaxPhase); err != nil {
				return err
			}
		}
	}
	return nil
}
