package analysis

import (
	"fmt"
	"sort"
	"strings"

	"bfbp/internal/sim"
)

// Attribution reports over sim.ProvenanceStats: cause-taxonomy
// breakdowns, per-component and per-bank accuracy tables, and the
// paper-shape validation comparing a bias-free predictor against its
// conventional baseline.

// CauseBreakdownReport renders one predictor's misprediction taxonomy,
// causes in classification order, with each cause's share of the total.
func CauseBreakdownReport(name string, pv *sim.ProvenanceStats) string {
	var b strings.Builder
	total := pv.Mispredicts()
	fmt.Fprintf(&b, "%s: %d mispredictions of %d explained branches\n",
		name, total, pv.Explained)
	fmt.Fprintf(&b, "  %-16s %12s %8s\n", "cause", "mispred", "share")
	for _, cause := range sim.Causes() {
		n := pv.Causes[cause]
		if n == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = float64(n) / float64(total)
		}
		fmt.Fprintf(&b, "  %-16s %12d %7.1f%%\n", cause, n, 100*share)
	}
	return b.String()
}

// ComponentReport renders the per-component prediction and accuracy
// table, components sorted by prediction count descending (name
// ascending on ties).
func ComponentReport(pv *sim.ProvenanceStats) string {
	names := make([]string, 0, len(pv.Components))
	for name := range pv.Components {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ci, cj := pv.Components[names[i]], pv.Components[names[j]]
		if ci.Predictions != cj.Predictions {
			return ci.Predictions > cj.Predictions
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "  %-12s %12s %12s %9s\n", "component", "predictions", "mispred", "accuracy")
	for _, name := range names {
		cs := pv.Components[name]
		fmt.Fprintf(&b, "  %-12s %12d %12d %8.2f%%\n",
			name, cs.Predictions, cs.Mispredicts, 100*(1-cs.MissRate()))
	}
	return b.String()
}

// BankUtilizationReport renders the provider-bank hit/accuracy table of
// a TAGE-class predictor (bank 0 = base bimodal). Empty string when the
// run collected no bank attribution.
func BankUtilizationReport(pv *sim.ProvenanceStats) string {
	if len(pv.BankHits) == 0 {
		return ""
	}
	var total uint64
	for _, h := range pv.BankHits {
		total += h
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %-6s %12s %8s %12s %9s\n", "bank", "hits", "share", "mispred", "accuracy")
	for i, h := range pv.BankHits {
		label := "base"
		if i > 0 {
			label = fmt.Sprintf("T%d", i)
		}
		share, acc := 0.0, 0.0
		if total > 0 {
			share = float64(h) / float64(total)
		}
		if h > 0 {
			acc = 1 - float64(pv.BankMisses[i])/float64(h)
		}
		fmt.Fprintf(&b, "  %-6s %12d %7.1f%% %12d %8.2f%%\n",
			label, h, 100*share, pv.BankMisses[i], 100*acc)
	}
	return b.String()
}

// DeepReachShare returns the fraction of tagged provider hits (base
// excluded) supplied by banks whose raw-branch reach is at least
// minDepth; reach[i] pairs with BankHits[i+1]. Zero when the run
// recorded no tagged hits or no reach information is available.
func DeepReachShare(pv *sim.ProvenanceStats, reach []int, minDepth int) float64 {
	var tagged, deep uint64
	for i := 1; i < len(pv.BankHits) && i-1 < len(reach); i++ {
		tagged += pv.BankHits[i]
		if reach[i-1] >= minDepth {
			deep += pv.BankHits[i]
		}
	}
	if tagged == 0 {
		return 0
	}
	return float64(deep) / float64(tagged)
}

// ShapeInput is one predictor's evidence for the paper-shape check.
// Reach is the per-tagged-bank raw-branch reach (TaggedReach of the
// run-end predictor); leave it nil for predictors without bank
// attribution.
type ShapeInput struct {
	Name  string
	Stats sim.Stats
	Reach []int
}

// Shape is the outcome of the paper-shape validation: the structural
// signatures §V predicts for a bias-free predictor against its
// conventional baseline on the same trace.
type Shape struct {
	BFName, BaseName string
	// DeepShareBF/DeepShareBase are each predictor's share of tagged
	// provider hits from banks reaching at least DeepReachBranches raw
	// branches back.
	DeepShareBF, DeepShareBase float64
	// MaxReachBF/MaxReachBase are the deepest bank reaches, for context.
	MaxReachBF, MaxReachBase int
	// NonBiasedMispredictsBF/Base count mispredictions at non-biased
	// branch sites (the filtered-history workload the paper targets).
	NonBiasedMispredictsBF, NonBiasedMispredictsBase uint64
	// LongHistoryAdvantage: the bias-free predictor serves a larger
	// share of its tagged provider hits from deep-reaching banks.
	LongHistoryAdvantage bool
	// FilteredMispredictAdvantage: the bias-free predictor mispredicts
	// non-biased sites less than the baseline.
	FilteredMispredictAdvantage bool
}

// DeepReachBranches is the raw-branch depth past which a provider bank
// counts as long-history in the paper-shape check. 128 sits well beyond
// the 16-branch unfiltered window and beyond what equal-budget
// conventional table sets cover (tage-8 tops out at 97 raw branches),
// while a bias-free bank of compressed length 142 reaches 2048 — the
// §V correlation-distance argument made measurable.
const DeepReachBranches = 128

// PaperShape compares a bias-free predictor's run against its
// conventional baseline on the same trace. Both runs must have been
// collected with Options.Explain and carry bank reach; non-biased
// misprediction counts additionally need Options.PerPC and a trace
// classification.
func PaperShape(bf, base ShapeInput, classes map[uint64]*BranchClass) Shape {
	s := Shape{BFName: bf.Name, BaseName: base.Name}
	if bf.Stats.Provenance != nil && base.Stats.Provenance != nil {
		s.DeepShareBF = DeepReachShare(bf.Stats.Provenance, bf.Reach, DeepReachBranches)
		s.DeepShareBase = DeepReachShare(base.Stats.Provenance, base.Reach, DeepReachBranches)
		s.MaxReachBF = maxReach(bf.Reach)
		s.MaxReachBase = maxReach(base.Reach)
		s.LongHistoryAdvantage = s.DeepShareBF > s.DeepShareBase
	}
	s.NonBiasedMispredictsBF = nonBiasedMispredicts(bf.Stats, classes)
	s.NonBiasedMispredictsBase = nonBiasedMispredicts(base.Stats, classes)
	s.FilteredMispredictAdvantage = s.NonBiasedMispredictsBF < s.NonBiasedMispredictsBase
	return s
}

func maxReach(reach []int) int {
	m := 0
	for _, r := range reach {
		if r > m {
			m = r
		}
	}
	return m
}

// nonBiasedMispredicts sums mispredictions at sites the classification
// marks non-biased.
func nonBiasedMispredicts(st sim.Stats, classes map[uint64]*BranchClass) uint64 {
	var n uint64
	for _, o := range st.TopOffenders(1 << 30) {
		if c := classes[o.PC]; c != nil && !c.Biased {
			n += o.Mispredicts
		}
	}
	return n
}

// Render formats the shape check as a small report.
func (s Shape) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "paper-shape: %s vs %s\n", s.BFName, s.BaseName)
	if s.MaxReachBF > 0 || s.MaxReachBase > 0 {
		fmt.Fprintf(&b, "  deepest bank reach: %d vs %d raw branches\n",
			s.MaxReachBF, s.MaxReachBase)
		fmt.Fprintf(&b, "  provider share from banks reaching >= %d branches: %.2f%% vs %.2f%%",
			DeepReachBranches, 100*s.DeepShareBF, 100*s.DeepShareBase)
		fmt.Fprintf(&b, "  [%s]\n", verdict(s.LongHistoryAdvantage))
	}
	fmt.Fprintf(&b, "  non-biased-site mispredictions: %d vs %d",
		s.NonBiasedMispredictsBF, s.NonBiasedMispredictsBase)
	fmt.Fprintf(&b, "  [%s]\n", verdict(s.FilteredMispredictAdvantage))
	return b.String()
}

func verdict(ok bool) string {
	if ok {
		return "matches paper"
	}
	return "DOES NOT match paper"
}
