package bfbp_test

import (
	"testing"

	"bfbp"
)

// These integration tests assert the paper's qualitative results — the
// "shape" of the evaluation — on reduced-scale traces. Absolute MPKI
// differs from the paper (synthetic traces, see DESIGN.md §1); orderings
// and mechanisms are what is checked.

const (
	longN  = 300_000
	shortN = 150_000
)

func mpki(t *testing.T, p bfbp.Predictor, tr bfbp.Trace) float64 {
	t.Helper()
	st, err := bfbp.Run(p, tr.Stream(), bfbp.Options{Warmup: uint64(len(tr) / 10)})
	if err != nil {
		t.Fatal(err)
	}
	return st.MPKI()
}

func genTrace(t *testing.T, name string, n int) bfbp.Trace {
	t.Helper()
	spec, ok := bfbp.TraceByName(name)
	if !ok {
		t.Fatalf("unknown trace %s", name)
	}
	return spec.GenerateN(n)
}

// TestShapeFig8 asserts Fig. 8's ordering on the suite mean: BF-Neural
// more accurate than OH-SNAP (paper: 2.49 vs 2.63) and in TAGE's
// neighbourhood (paper: 2.445).
func TestShapeFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trace integration test")
	}
	traces := []string{"SPEC00", "SPEC03", "SPEC06", "SPEC09", "SPEC15", "FP3", "INT1", "MM1", "SERV2"}
	var sumOH, sumTAGE, sumBF float64
	for _, name := range traces {
		tr := genTrace(t, name, longN)
		sumOH += mpki(t, bfbp.NewOHSNAP(bfbp.OHSNAP64KB()), tr)
		sumTAGE += mpki(t, bfbp.NewTAGE(bfbp.TAGEBare(15)), tr)
		sumBF += mpki(t, bfbp.NewBFNeural(bfbp.BFNeural64KB()), tr)
	}
	n := float64(len(traces))
	t.Logf("mean MPKI: OH-SNAP %.3f, TAGE %.3f, BF-Neural %.3f", sumOH/n, sumTAGE/n, sumBF/n)
	if sumBF >= sumOH {
		t.Errorf("BF-Neural (%.3f) should beat OH-SNAP (%.3f) on average", sumBF/n, sumOH/n)
	}
	if sumBF > sumTAGE*1.25 {
		t.Errorf("BF-Neural (%.3f) should be comparable to TAGE (%.3f)", sumBF/n, sumTAGE/n)
	}
}

// TestShapeFig9 asserts the ablation staircase on the suite mean:
// conventional perceptron -> +BST filter -> +bias-free GHR -> +RS, each
// step no worse and the ends clearly ordered (paper: 3.28 -> 2.67 ->
// 2.59 -> 2.49).
func TestShapeFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trace integration test")
	}
	traces := []string{"SPEC02", "SPEC03", "SPEC06", "SPEC14", "SPEC18", "INT2", "MM3"}
	var sums [4]float64
	for _, name := range traces {
		tr := genTrace(t, name, longN)
		sums[0] += mpki(t, bfbp.NewPerceptron(bfbp.Perceptron64KB()), tr)
		sums[1] += mpki(t, bfbp.NewBFNeural(bfbp.BFNeuralAblation(bfbp.BFModeFilterWeights)), tr)
		sums[2] += mpki(t, bfbp.NewBFNeural(bfbp.BFNeuralAblation(bfbp.BFModeBiasFreeGHR)), tr)
		sums[3] += mpki(t, bfbp.NewBFNeural(bfbp.BFNeuralAblation(bfbp.BFModeFull)), tr)
	}
	t.Logf("ablation means: perceptron %.3f, +filter %.3f, +ghist %.3f, +RS %.3f",
		sums[0], sums[1], sums[2], sums[3])
	if sums[3] >= sums[0] {
		t.Errorf("full BF-Neural (%.3f) should clearly beat the conventional perceptron (%.3f)", sums[3], sums[0])
	}
	if sums[3] >= sums[1] {
		t.Errorf("full BF-Neural (%.3f) should beat filter-weights-only (%.3f)", sums[3], sums[1])
	}
}

// TestShapeFig11LongTraces asserts the Fig. 11 relative-improvement
// pattern on long-history traces: a 15-table TAGE improves over the
// 10-table TAGE, and the 10-table BF-TAGE tracks the 15-table TAGE far
// more closely than its 195-bit history would allow.
func TestShapeFig11LongTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trace integration test")
	}
	traces := []string{"SPEC00", "SPEC06", "SPEC09"}
	var t10, t15, bf10 float64
	for _, name := range traces {
		tr := genTrace(t, name, longN)
		t10 += mpki(t, bfbp.NewTAGE(bfbp.ISLTAGE(10)), tr)
		t15 += mpki(t, bfbp.NewTAGE(bfbp.ISLTAGE(15)), tr)
		bf10 += mpki(t, bfbp.NewBFTAGE(bfbp.BFISLTAGE(10)), tr)
	}
	t.Logf("long traces: tage-10 %.3f, tage-15 %.3f, bf-tage-10 %.3f", t10, t15, bf10)
	if t15 >= t10 {
		t.Errorf("tage-15 (%.3f) should beat tage-10 (%.3f) on long-history traces", t15, t10)
	}
	// BF-TAGE-10 must be within striking distance of TAGE-15 despite
	// indexing with only ~142 BF-GHR bits.
	if bf10 > t10*1.4 {
		t.Errorf("bf-tage-10 (%.3f) strayed too far from the TAGE baselines (t10 %.3f)", bf10, t10)
	}
}

// TestShapeFig12ProviderShift asserts Fig. 12's point: for the same deep
// workload, BF-TAGE satisfies branches from shorter-history (lower-
// numbered) tables than conventional TAGE, because the BF-GHR compresses
// distance.
func TestShapeFig12ProviderShift(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trace integration test")
	}
	tr := genTrace(t, "SPEC00", longN)
	t15 := bfbp.NewTAGE(bfbp.TAGEBare(15))
	bf10 := bfbp.NewBFTAGE(bfbp.BFTAGEBare(10))
	if _, err := bfbp.Run(t15, tr.Stream(), bfbp.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := bfbp.Run(bf10, tr.Stream(), bfbp.Options{}); err != nil {
		t.Fatal(err)
	}
	center := func(hits []uint64) float64 {
		var num, den float64
		for i := 1; i < len(hits); i++ {
			num += float64(i) * float64(hits[i])
			den += float64(hits[i])
		}
		if den == 0 {
			return 0
		}
		return num / den
	}
	cT := center(t15.TableHits())
	cB := center(bf10.TableHits())
	t.Logf("hit-weighted provider table: tage-15 %.2f, bf-tage-10 %.2f", cT, cB)
	if cB >= cT {
		t.Errorf("bf-tage-10 provider center (%.2f) should sit at lower tables than tage-15 (%.2f)", cB, cT)
	}
}

// TestBFNeural32KBDegradesGracefully: the paper reports 2.73 MPKI at 32KB
// vs 2.49 at 64KB — smaller budget, slightly worse, still functional.
func TestBFNeural32KBDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	tr := genTrace(t, "SPEC05", longN)
	m64 := mpki(t, bfbp.NewBFNeural(bfbp.BFNeural64KB()), tr)
	m32 := mpki(t, bfbp.NewBFNeural(bfbp.BFNeural32KB()), tr)
	t.Logf("BF-Neural 64KB %.3f, 32KB %.3f", m64, m32)
	if m32 > m64*1.8 {
		t.Errorf("32KB build (%.3f) degraded too much vs 64KB (%.3f)", m32, m64)
	}
}

// TestPublicAPISurface exercises the re-exported constructors end to end.
func TestPublicAPISurface(t *testing.T) {
	tr := genTrace(t, "FP2", 30_000)
	preds := []bfbp.Predictor{
		bfbp.NewBimodal(1 << 12),
		bfbp.NewGShare(1<<12, 12),
		bfbp.NewLocal(1<<10, 10, 1<<12),
		bfbp.NewPerceptron(bfbp.Perceptron64KB()),
		bfbp.NewOHSNAP(bfbp.OHSNAP64KB()),
		bfbp.NewTAGE(bfbp.ISLTAGE(8)),
		bfbp.NewBFNeural(bfbp.BFNeural64KB()),
		bfbp.NewBFTAGE(bfbp.BFISLTAGE(10)),
	}
	src := bfbp.FuncSource{Label: "FP2", OpenFn: func() bfbp.TraceReader { return tr.Stream() }}
	results, err := bfbp.RunAllSource(preds, src, bfbp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(preds) {
		t.Fatalf("got %d results, want %d", len(results), len(preds))
	}
	for _, r := range results {
		if r.Stats.Branches == 0 {
			t.Errorf("%s processed no branches", r.Predictor)
		}
		if r.Stats.MispredictRate() > 0.5 {
			t.Errorf("%s mispredict rate %.3f worse than coin flip", r.Predictor, r.Stats.MispredictRate())
		}
	}
	for _, p := range preds {
		if sa, ok := p.(bfbp.StorageAccounter); ok {
			if sa.Storage().TotalBits() <= 0 {
				t.Errorf("%s reports empty storage", p.Name())
			}
		}
	}
}

// TestBiasOracle verifies the §VI-D profile-assisted classifier plumbing.
func TestBiasOracle(t *testing.T) {
	tr := genTrace(t, "SERV3", 40_000)
	oracle, err := bfbp.NewBiasOracle(tr.Stream())
	if err != nil {
		t.Fatal(err)
	}
	cfg := bfbp.BFISLTAGE(10)
	cfg.Classifier = oracle
	st, err := bfbp.Run(bfbp.NewBFTAGE(cfg), tr.Stream(), bfbp.Options{Warmup: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if st.MispredictRate() > 0.5 {
		t.Fatalf("oracle-classified BF-TAGE rate %.3f", st.MispredictRate())
	}
}

// TestProfileBiasAPI checks the Fig. 2 profiling entry point.
func TestProfileBiasAPI(t *testing.T) {
	tr := genTrace(t, "SPEC06", 50_000)
	st, err := bfbp.ProfileBias(tr.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if st.DynamicFraction() < 0.3 {
		t.Errorf("SPEC06 biased fraction %.2f, expected a high-bias trace", st.DynamicFraction())
	}
}

// allPredictors returns a fresh instance of every public predictor.
func allPredictors() []bfbp.Predictor {
	return []bfbp.Predictor{
		bfbp.NewBimodal(1 << 14),
		bfbp.NewGShare(1<<14, 12),
		bfbp.NewLocal(1<<10, 10, 1<<13),
		bfbp.NewTournament(bfbp.Tournament64KB()),
		bfbp.NewYAGS(bfbp.YAGS64KB()),
		bfbp.NewFilter(bfbp.Filter64KB()),
		bfbp.NewGEHL(bfbp.GEHL64KB()),
		bfbp.NewStrided(bfbp.Strided64KB()),
		bfbp.NewPerceptron(bfbp.Perceptron64KB()),
		bfbp.NewOHSNAP(bfbp.OHSNAP64KB()),
		bfbp.NewTAGE(bfbp.ISLTAGE(10)),
		bfbp.NewBFNeural(bfbp.BFNeural64KB()),
		bfbp.NewBFTAGE(bfbp.BFISLTAGE(10)),
		bfbp.NewBFGEHL(bfbp.BFGEHL64KB()),
	}
}

// TestMatrixBiasedStream: every predictor must be near-perfect on a
// purely biased stream after warmup.
func TestMatrixBiasedStream(t *testing.T) {
	var recs bfbp.Trace
	for i := 0; i < 40000; i++ {
		pc := uint64(0x1000 + (i%64)*4)
		recs = append(recs, bfbp.Record{PC: pc, Taken: pc%12 != 0, Instret: 5})
	}
	for _, p := range allPredictors() {
		st, err := bfbp.Run(p, recs.Stream(), bfbp.Options{Warmup: 8000})
		if err != nil {
			t.Fatal(err)
		}
		if st.MispredictRate() > 0.02 {
			t.Errorf("%s: biased-stream rate %.4f, want ~0", p.Name(), st.MispredictRate())
		}
	}
}

// TestMatrixRandomStream: no predictor may be much worse than a coin
// flip on pure noise (that would indicate inverted logic).
func TestMatrixRandomStream(t *testing.T) {
	spec, _ := bfbp.TraceByName("SPEC00")
	_ = spec
	recs := make(bfbp.Trace, 40000)
	r := uint64(0x9E3779B97F4A7C15)
	for i := range recs {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		recs[i] = bfbp.Record{PC: 0x100, Taken: r&1 == 1, Instret: 5}
	}
	for _, p := range allPredictors() {
		st, err := bfbp.Run(p, recs.Stream(), bfbp.Options{Warmup: 4000})
		if err != nil {
			t.Fatal(err)
		}
		if st.MispredictRate() > 0.60 {
			t.Errorf("%s: random-stream rate %.3f, worse than coin flip", p.Name(), st.MispredictRate())
		}
	}
}

// TestMatrixShortCorrelation: every history-based predictor must learn a
// distance-5 correlation.
func TestMatrixShortCorrelation(t *testing.T) {
	var recs bfbp.Trace
	r := uint64(12345)
	for len(recs) < 60000 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		a := r&1 == 1
		recs = append(recs, bfbp.Record{PC: 0x100, Taken: a, Instret: 5})
		for i := 0; i < 4; i++ {
			recs = append(recs, bfbp.Record{PC: uint64(0x200 + i*4), Taken: true, Instret: 5})
		}
		recs = append(recs, bfbp.Record{PC: 0x900, Taken: a, Instret: 5})
	}
	for _, p := range allPredictors() {
		switch p.Name() {
		case "bimodal", "filter", "local":
			// No cross-branch global history mechanism for this pattern.
			continue
		}
		st, err := bfbp.Run(p, recs.Stream(), bfbp.Options{Warmup: 20000, PerPC: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range st.TopOffenders(10) {
			if o.PC == 0x900 {
				rate := float64(o.Mispredicts) / float64(o.Count)
				if rate > 0.15 {
					t.Errorf("%s: distance-5 correlation rate %.3f, want ~0", p.Name(), rate)
				}
			}
		}
	}
}

// TestMatrixStorageAccounting: every predictor reports a sane budget.
func TestMatrixStorageAccounting(t *testing.T) {
	for _, p := range allPredictors() {
		sa, ok := p.(bfbp.StorageAccounter)
		if !ok {
			t.Errorf("%s: no storage accounting", p.Name())
			continue
		}
		bytes := sa.Storage().TotalBytes()
		if bytes < 1024 || bytes > 1<<20 {
			t.Errorf("%s: budget %d bytes implausible", p.Name(), bytes)
		}
	}
}
