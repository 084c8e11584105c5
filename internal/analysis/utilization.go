// Capacity-vs-reach utilization reports over StateProbe samples. The
// paper's core claim is a capacity statement: filtering biased branches
// out of the history lets a fixed storage budget observe much deeper
// correlations. This file turns a run-end ProbeState sample into the
// report `analyze -utilization` prints — per-bank occupancy and tag
// conflicts laid out against each bank's history length and raw-branch
// reach — and a paired shape check showing a bias-free core's deep
// banks earning their keep where a conventional TAGE's alias out.

package analysis

import (
	"fmt"
	"strings"

	"bfbp/internal/sim"
	"bfbp/internal/workload"
)

// UtilizationReport is one predictor's run-end state sample with its
// run statistics: what the tables look like after MPKI settled.
type UtilizationReport struct {
	Predictor string
	Trace     string
	Branches  uint64
	MPKI      float64
	State     sim.TableStats
}

// Utilization runs p over branches records of spec (10% warmup) and
// samples its state at run end. Errors if p does not implement
// StateProbe.
func Utilization(p sim.Predictor, spec workload.Spec, branches int) (UtilizationReport, error) {
	probe := sim.Capabilities(p).StateProbe
	if probe == nil {
		return UtilizationReport{}, fmt.Errorf("%s does not implement StateProbe", p.Name())
	}
	st, err := sim.Run(p, spec.Stream(branches), sim.Options{Warmup: uint64(branches / 10)})
	if err != nil {
		return UtilizationReport{}, err
	}
	return UtilizationReport{
		Predictor: p.Name(),
		Trace:     spec.Name,
		Branches:  st.Branches,
		MPKI:      st.MPKI(),
		State:     probe.ProbeState(),
	}, nil
}

// Render prints the per-bank occupancy table, then weight arrays and
// recency segments where the predictor has them.
func (r UtilizationReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: MPKI %.3f (%d branches)\n", r.Predictor, r.Trace, r.MPKI, r.Branches)
	if len(r.State.Banks) > 0 {
		fmt.Fprintf(&b, "  %-12s %9s %9s %6s %8s %7s %9s %8s %9s\n",
			"bank", "entries", "live", "occ%", "histlen", "reach", "conflict%", "useful", "saturated")
		for _, bk := range r.State.Banks {
			fmt.Fprintf(&b, "  %-12s %9d %9d %5.1f%% %8d %7d %8.1f%% %8d %9d\n",
				bk.Label(), bk.Entries, bk.Live, 100*bk.Occupancy(),
				bk.HistLen, bk.Reach, 100*bk.ConflictRate(), bk.UsefulSet, bk.Saturated)
		}
	}
	if len(r.State.Weights) > 0 {
		fmt.Fprintf(&b, "  %-12s %9s %9s %6s %8s %10s %5s\n",
			"weights", "len", "live", "sat%", "histlen", "L1", "max")
		for _, w := range r.State.Weights {
			fmt.Fprintf(&b, "  %-12s %9d %9d %5.1f%% %8d %10d %5d\n",
				w.Name, w.Weights, w.Live, 100*w.SaturationRate(), w.HistLen, w.L1, w.Max)
		}
	}
	for _, seg := range r.State.Recency {
		fmt.Fprintf(&b, "  recency seg %d: %d/%d live, depth <= %d\n",
			seg.Segment, seg.Live, seg.Size, seg.Depth)
	}
	return b.String()
}

// CapacityCheck is one pass/fail assertion of the capacity shape.
type CapacityCheck struct {
	Name   string
	Pass   bool
	Detail string
}

// CapacityShape compares a bias-free predictor's utilization against a
// conventional baseline's, reducing the paper's capacity argument to
// checkable numbers over the tagged banks.
type CapacityShape struct {
	BF, Base UtilizationReport
	// Deepest raw-branch reach of any tagged bank.
	BFReach, BaseReach int
	// History bits the deepest tagged bank is indexed with.
	BFDeepHist, BaseDeepHist int
	// Mean occupancy over the deep half of the tagged banks.
	BFDeepOcc, BaseDeepOcc float64
	// Mean tag-conflict rate over the deep half of the tagged banks.
	BFDeepConflict, BaseDeepConflict float64
	Checks                           []CapacityCheck
}

// Render prints the side-by-side deep-bank numbers and the checks.
func (s CapacityShape) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "capacity shape: %s vs %s on %s\n", s.BF.Predictor, s.Base.Predictor, s.BF.Trace)
	fmt.Fprintf(&b, "  %-24s %12s %12s\n", "", s.BF.Predictor, s.Base.Predictor)
	fmt.Fprintf(&b, "  %-24s %12d %12d\n", "deepest reach (branches)", s.BFReach, s.BaseReach)
	fmt.Fprintf(&b, "  %-24s %12d %12d\n", "deepest bank hist bits", s.BFDeepHist, s.BaseDeepHist)
	fmt.Fprintf(&b, "  %-24s %11.1f%% %11.1f%%\n", "deep-half occupancy", 100*s.BFDeepOcc, 100*s.BaseDeepOcc)
	fmt.Fprintf(&b, "  %-24s %11.1f%% %11.1f%%\n", "deep-half tag conflicts", 100*s.BFDeepConflict, 100*s.BaseDeepConflict)
	for _, c := range s.Checks {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %-22s %s\n", verdict, c.Name, c.Detail)
	}
	return b.String()
}

// Capacity builds the capacity comparison between a bias-free report
// and a conventional baseline report.
func Capacity(bf, base UtilizationReport) CapacityShape {
	s := CapacityShape{BF: bf, Base: base}
	s.BFReach, s.BFDeepHist, s.BFDeepOcc, s.BFDeepConflict = deepTagged(bf.State.Banks)
	s.BaseReach, s.BaseDeepHist, s.BaseDeepOcc, s.BaseDeepConflict = deepTagged(base.State.Banks)

	s.Checks = append(s.Checks, CapacityCheck{
		Name: "deeper-reach",
		Pass: s.BFReach > s.BaseReach,
		Detail: fmt.Sprintf("bias-free deepest bank observes %d branches vs %d conventional",
			s.BFReach, s.BaseReach),
	})
	s.Checks = append(s.Checks, CapacityCheck{
		Name: "compressed-history",
		Pass: s.BFReach > s.BFDeepHist && s.BaseReach == s.BaseDeepHist,
		Detail: fmt.Sprintf("bias-free reach %d from %d history bits; conventional reach equals its %d bits",
			s.BFReach, s.BFDeepHist, s.BaseDeepHist),
	})
	s.Checks = append(s.Checks, CapacityCheck{
		Name: "deep-banks-live",
		Pass: s.BFDeepOcc > 0.01,
		Detail: fmt.Sprintf("bias-free deep-half occupancy %.1f%% — the deep banks allocate",
			100*s.BFDeepOcc),
	})
	return s
}

// deepTagged summarises the deep half of the tagged banks (storage
// order tracks history length, so the second half is the deep half):
// the deepest reach and its history bits, plus mean occupancy and
// conflict rate across the deep half.
func deepTagged(banks []sim.BankStats) (reach, hist int, occ, conflict float64) {
	tagged := taggedBanks(banks)
	if len(tagged) == 0 {
		return 0, 0, 0, 0
	}
	deep := tagged[len(tagged)/2:]
	for _, b := range deep {
		occ += b.Occupancy()
		conflict += b.ConflictRate()
		if b.Reach > reach {
			reach, hist = b.Reach, b.HistLen
		}
	}
	occ /= float64(len(deep))
	conflict /= float64(len(deep))
	return reach, hist, occ, conflict
}

// taggedBanks filters a state sample's banks to the tagged tables, in
// storage order.
func taggedBanks(banks []sim.BankStats) []sim.BankStats {
	var tagged []sim.BankStats
	for _, b := range banks {
		if b.Kind == "tagged" {
			tagged = append(tagged, b)
		}
	}
	return tagged
}

// TaggedReach returns the raw-branch reach of each of p's tagged banks,
// from a ProbeState sample taken now — the ShapeInput.Reach of a
// finished run. Nil for predictors without StateProbe or tagged banks.
func TaggedReach(p sim.Predictor) []int {
	probe := sim.Capabilities(p).StateProbe
	if probe == nil {
		return nil
	}
	var reach []int
	for _, b := range taggedBanks(probe.ProbeState().Banks) {
		reach = append(reach, b.Reach)
	}
	return reach
}
