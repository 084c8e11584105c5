package analysis

import (
	"strings"
	"testing"

	"bfbp/internal/core/bfneural"
	"bfbp/internal/core/bftage"
	"bfbp/internal/predictor/perceptron"
	"bfbp/internal/predictor/tage"
	"bfbp/internal/sim"
	"bfbp/internal/workload"
)

func mkProvenance() *sim.ProvenanceStats {
	pv := sim.NewProvenanceStats()
	pv.Explained = 100
	pv.Causes[sim.CauseColdSite] = 4
	pv.Causes[sim.CauseLowConfidence] = 6
	pv.Components["base"] = &sim.ComponentStat{Predictions: 60, Mispredicts: 8}
	pv.Components["tagged"] = &sim.ComponentStat{Predictions: 40, Mispredicts: 2}
	pv.BankHits = []uint64{60, 25, 10, 5}
	pv.BankMisses = []uint64{8, 1, 1, 0}
	return pv
}

func TestCauseBreakdownReport(t *testing.T) {
	got := CauseBreakdownReport("toy", mkProvenance())
	if !strings.Contains(got, "toy: 10 mispredictions of 100 explained branches") {
		t.Fatalf("header wrong:\n%s", got)
	}
	// Causes render in classification order with shares; zero-count
	// causes are skipped.
	cold := strings.Index(got, sim.CauseColdSite)
	low := strings.Index(got, sim.CauseLowConfidence)
	if cold < 0 || low < 0 || cold > low {
		t.Fatalf("cause order wrong:\n%s", got)
	}
	if strings.Contains(got, sim.CauseTagConflict) {
		t.Fatalf("zero-count cause rendered:\n%s", got)
	}
	if !strings.Contains(got, "60.0%") {
		t.Fatalf("share missing:\n%s", got)
	}
}

func TestComponentReport(t *testing.T) {
	got := ComponentReport(mkProvenance())
	// Prediction-count descending: base before tagged.
	if b, tg := strings.Index(got, "base"), strings.Index(got, "tagged"); b < 0 || tg < 0 || b > tg {
		t.Fatalf("component order wrong:\n%s", got)
	}
	if !strings.Contains(got, "95.00%") { // tagged: 1 - 2/40
		t.Fatalf("accuracy missing:\n%s", got)
	}
}

func TestBankUtilizationReport(t *testing.T) {
	got := BankUtilizationReport(mkProvenance())
	for _, frag := range []string{"base", "T1", "T3", "60.0%"} {
		if !strings.Contains(got, frag) {
			t.Fatalf("bank report missing %q:\n%s", frag, got)
		}
	}
	pv := sim.NewProvenanceStats()
	if BankUtilizationReport(pv) != "" {
		t.Fatal("bankless provenance must render empty")
	}
}

func TestDeepReachShare(t *testing.T) {
	pv := mkProvenance() // tagged hits: 25, 10, 5
	reach := []int{20, 97, 320}
	if got := DeepReachShare(pv, reach, 128); got != 5.0/40 {
		t.Fatalf("DeepReachShare = %v, want 0.125", got)
	}
	if got := DeepReachShare(pv, reach, 5000); got != 0 {
		t.Fatalf("share past max reach = %v, want 0", got)
	}
	if got := DeepReachShare(pv, nil, 128); got != 0 {
		t.Fatalf("share without reach = %v, want 0", got)
	}
	if got := DeepReachShare(sim.NewProvenanceStats(), reach, 128); got != 0 {
		t.Fatalf("share without hits = %v, want 0", got)
	}
}

func TestShapeRenderVariants(t *testing.T) {
	s := Shape{BFName: "bf", BaseName: "conv", MaxReachBF: 2048, MaxReachBase: 97,
		DeepShareBF: 0.001, LongHistoryAdvantage: true}
	got := s.Render()
	if !strings.Contains(got, "deepest bank reach: 2048 vs 97") ||
		!strings.Contains(got, "matches paper") {
		t.Fatalf("render:\n%s", got)
	}
	// Bankless pairs (neural predictors) render only the non-biased
	// check — no misleading 0-vs-0 bank verdict.
	if got := (Shape{BFName: "bf", BaseName: "conv"}).Render(); strings.Contains(got, "bank reach") {
		t.Fatalf("bankless render shows bank lines:\n%s", got)
	}
}

// explainOn evaluates one predictor with provenance tracing on a
// synthetic trace and packages the run as a ShapeInput.
func explainOn(t *testing.T, traceName string, n int, p sim.Predictor) ShapeInput {
	t.Helper()
	spec, ok := workload.ByName(traceName)
	if !ok {
		t.Fatalf("trace %s missing", traceName)
	}
	tr := spec.GenerateN(n)
	st, err := sim.Run(p, tr.Stream(), sim.Options{
		Warmup: uint64(n / 10), PerPC: true, Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ShapeInput{Name: p.Name(), Stats: st, Reach: TaggedReach(p)}
}

// The paper's §V structural claim, asserted end-to-end: at equal table
// count, BF-TAGE serves a strictly larger share of its provider hits
// from banks reaching beyond DeepReachBranches raw branches than
// conventional TAGE does on at least one SERV trace — conventional
// tage-8 physically tops out at 97 branches of reach, while the
// compressed BF-GHR's deepest bank reaches 2048.
func TestPaperShapeLongHistorySERV(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trace simulation")
	}
	const n = 300_000
	won := []string{}
	for _, traceName := range []string{"SERV1", "SERV2", "SERV3"} {
		spec, _ := workload.ByName(traceName)
		classes, err := Classify(spec.GenerateN(n).Stream())
		if err != nil {
			t.Fatal(err)
		}
		base := explainOn(t, traceName, n, tage.New(tage.ConventionalBare(8)))
		bf := explainOn(t, traceName, n, bftage.New(bftage.ConventionalBare(8)))
		shape := PaperShape(bf, base, classes)
		if shape.MaxReachBase != 97 || shape.MaxReachBF != 2048 {
			t.Fatalf("%s: reaches %d/%d, want 97/2048", traceName, shape.MaxReachBase, shape.MaxReachBF)
		}
		if shape.LongHistoryAdvantage {
			won = append(won, traceName)
		}
	}
	if len(won) == 0 {
		t.Fatal("BF-TAGE showed no long-history provider advantage on any SERV trace")
	}
	t.Logf("long-history advantage on %v", won)
}

// The paper's bias-filtering payoff: BF-Neural mispredicts non-biased
// sites (the filtered-history workload) less than the conventional
// perceptron at the same storage budget.
func TestPaperShapeFilteredMispredictsSERV(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trace simulation")
	}
	const n = 300_000
	spec, _ := workload.ByName("SERV1")
	classes, err := Classify(spec.GenerateN(n).Stream())
	if err != nil {
		t.Fatal(err)
	}
	base := explainOn(t, "SERV1", n, perceptron.New(perceptron.Default64KB()))
	bf := explainOn(t, "SERV1", n, bfneural.New(bfneural.Default64KB()))
	shape := PaperShape(bf, base, classes)
	if !shape.FilteredMispredictAdvantage {
		t.Fatalf("bf-neural non-biased mispredicts %d, perceptron %d — want fewer",
			shape.NonBiasedMispredictsBF, shape.NonBiasedMispredictsBase)
	}
}
