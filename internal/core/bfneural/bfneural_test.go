package bfneural

import (
	"testing"

	"bfbp/internal/bst"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

func smallCfg() Config {
	return Config{
		Mode:             ModeFull,
		BSTEntries:       1 << 12,
		BiasEntries:      1 << 10,
		WmRows:           1 << 9,
		RecentUnfiltered: 12,
		WrsEntries:       1 << 13,
		RSDepth:          32,
		LoopPredictor:    true,
	}
}

func TestBiasedBranchesPerfectAfterWarmup(t *testing.T) {
	p := New(smallCfg())
	recs := make(trace.Slice, 30000)
	for i := range recs {
		pc := uint64(0x1000 + (i%64)*4)
		recs[i] = trace.Record{PC: pc, Taken: pc%8 != 0, Instret: 5}
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if st.MispredictRate() > 0.001 {
		t.Fatalf("biased stream rate = %.5f, want ~0 (BST should predict all)", st.MispredictRate())
	}
}

// deepCorrTrace: source branch, `distance` biased pad branches, then a
// target equal to the source. The pads keep the non-biased footprint tiny,
// so the recency stack holds the source across any distance.
func deepCorrTrace(seed uint64, n, distance, padSites int) trace.Slice {
	r := rng.New(seed)
	var recs trace.Slice
	for len(recs) < n {
		a := r.Bool(0.5)
		recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
		for i := 0; i < distance; i++ {
			pc := uint64(0x10000 + (i%padSites)*4)
			recs = append(recs, trace.Record{PC: pc, Taken: true, Instret: 5})
		}
		recs = append(recs, trace.Record{PC: 0x900, Taken: a, Instret: 5})
	}
	return recs
}

func rateOf(t *testing.T, st sim.Stats, pc uint64) float64 {
	t.Helper()
	for _, o := range st.TopOffenders(30) {
		if o.PC == pc {
			return float64(o.Mispredicts) / float64(o.Count)
		}
	}
	return 0
}

func TestCapturesVeryDistantCorrelation(t *testing.T) {
	// Distance 800, far beyond any 64-128 deep unfiltered history. The
	// headline claim: BF-Neural reaches ~2000 branches with a 64-entry
	// stack because the pads are biased and filtered out.
	tr := deepCorrTrace(1, 300000, 800, 61)
	p := New(smallCfg())
	st, err := sim.Run(p, tr.Stream(), sim.Options{Warmup: 60000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rateOf(t, st, 0x900)
	t.Logf("distance-800 target rate: %.4f", r)
	if r > 0.10 {
		t.Fatalf("BF-Neural failed a distance-800 correlation through biased pads: rate %.3f", r)
	}
}

func TestAblationOrdering(t *testing.T) {
	// The Fig. 9 staircase on a workload with (a) biased pads and (b)
	// repeat-flooded non-biased pads: filtering history beats filtering
	// weights only; adding the RS beats both.
	r := rng.New(7)
	var recs trace.Slice
	toggles := [4]bool{}
	for len(recs) < 400000 {
		a := r.Bool(0.5)
		recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
		// 120 pads: biased sites, plus every 3rd a repeat of 4 alternating
		// non-biased sites (floods a dup-keeping filtered history of
		// depth 32: 40 non-biased instances > 32).
		for i := 0; i < 120; i++ {
			if i%3 == 2 {
				j := i % 4
				pc := uint64(0x20000 + j*4)
				recs = append(recs, trace.Record{PC: pc, Taken: toggles[j], Instret: 5})
				toggles[j] = !toggles[j]
			} else {
				pc := uint64(0x10000 + (i%40)*4)
				recs = append(recs, trace.Record{PC: pc, Taken: true, Instret: 5})
			}
		}
		recs = append(recs, trace.Record{PC: 0x900, Taken: a, Instret: 5})
	}
	run := func(mode Mode) float64 {
		cfg := smallCfg()
		cfg.Mode = mode
		if mode == ModeFilterWeights {
			cfg.RecentUnfiltered = 72
			cfg.RSDepth = 0
		}
		st, err := sim.Run(New(cfg), recs.Stream(), sim.Options{Warmup: 100000, PerPC: true})
		if err != nil {
			t.Fatal(err)
		}
		return rateOf(t, st, 0x900)
	}
	fw := run(ModeFilterWeights)
	gh := run(ModeBiasFreeGHR)
	full := run(ModeFull)
	t.Logf("target rates: filter-weights %.3f, ghist %.3f, full RS %.3f", fw, gh, full)
	if full > 0.10 {
		t.Errorf("full BF-Neural rate = %.3f, want < 0.10", full)
	}
	if full >= fw {
		t.Errorf("RS mode (%.3f) should beat filter-weights mode (%.3f)", full, fw)
	}
	if full >= gh {
		t.Errorf("RS mode (%.3f) should beat dup-keeping ghist mode (%.3f)", full, gh)
	}
}

func TestPositionalHistoryFig4(t *testing.T) {
	// The paper's Fig. 4 pattern: X is taken only on iteration p of the
	// loop and only when A was taken. With pos_hist, each X instance sees
	// a distinguishable distance to A.
	r := rng.New(9)
	const loopCount, pIdx = 20, 7
	var recs trace.Slice
	for len(recs) < 300000 {
		a := r.Bool(0.5)
		recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
		for i := 0; i < loopCount; i++ {
			recs = append(recs, trace.Record{PC: 0x200, Taken: a && i == pIdx, Instret: 5})
			recs = append(recs, trace.Record{PC: 0x204, Taken: i != loopCount-1, Instret: 5})
		}
	}
	p := New(smallCfg())
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 60000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	r200 := rateOf(t, st, 0x200)
	t.Logf("Fig. 4 branch X rate: %.4f", r200)
	// X is taken 1/40 of the time; always predicting not-taken gives
	// 0.025. The positional history should do clearly better than 0.025
	// by catching the taken instance.
	if r200 > 0.02 {
		t.Errorf("branch X rate = %.4f, want < 0.02 (pos_hist should separate instances)", r200)
	}
}

func TestBSTTransitionTrainsWeights(t *testing.T) {
	// A branch biased for a long stretch then revealing non-bias: the
	// predictor must transition it and keep predicting sensibly.
	p, s := build(smallCfg(), nil)
	var recs trace.Slice
	for i := 0; i < 5000; i++ {
		recs = append(recs, trace.Record{PC: 0x300, Taken: true, Instret: 5})
	}
	// Now alternate.
	for i := 0; i < 20000; i++ {
		recs = append(recs, trace.Record{PC: 0x300, Taken: i%2 == 0, Instret: 5})
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if s.class.Lookup(0x300) != bst.NonBiased {
		t.Fatal("branch should be classified NonBiased after both directions")
	}
	// Alternation is learnable from the unfiltered recent history.
	if st.MispredictRate() > 0.05 {
		t.Errorf("post-transition rate = %.4f, want < 0.05", st.MispredictRate())
	}
}

func TestOracleClassifierPluggable(t *testing.T) {
	// With a static oracle, a phase-flipping biased branch never pollutes
	// the weights: compare dynamic vs oracle on a phase workload.
	mk := func() trace.Slice {
		var recs trace.Slice
		r := rng.New(3)
		for len(recs) < 150000 {
			// Phase branch: biased per 3000-instance phase.
			phase := (len(recs) / 9000) % 2
			recs = append(recs, trace.Record{PC: 0x400, Taken: phase == 0, Instret: 5})
			a := r.Bool(0.5)
			recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
			recs = append(recs, trace.Record{PC: 0x104, Taken: true, Instret: 5})
			recs = append(recs, trace.Record{PC: 0x900, Taken: a, Instret: 5})
		}
		return recs
	}
	oracle := bst.NewOracle()
	for _, rec := range mk() {
		oracle.Observe(rec.PC, rec.Taken)
	}
	withOracle, _ := build(smallCfg(), oracle)
	st, err := sim.Run(withOracle, mk().Stream(), sim.Options{Warmup: 30000})
	if err != nil {
		t.Fatal(err)
	}
	dynSt, err := sim.Run(New(smallCfg()), mk().Stream(), sim.Options{Warmup: 30000})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("phase workload MPKI: oracle %.3f, dynamic %.3f", st.MPKI(), dynSt.MPKI())
	if st.MispredictRate() > dynSt.MispredictRate()+0.01 {
		t.Errorf("oracle (%.4f) should not lose to dynamic (%.4f)",
			st.MispredictRate(), dynSt.MispredictRate())
	}
}

func TestDeterminism(t *testing.T) {
	tr := deepCorrTrace(11, 50000, 100, 17)
	a, _ := sim.Run(New(smallCfg()), tr.Stream(), sim.Options{})
	b, _ := sim.Run(New(smallCfg()), tr.Stream(), sim.Options{})
	if a.Mispredicts != b.Mispredicts {
		t.Fatalf("non-deterministic: %d vs %d", a.Mispredicts, b.Mispredicts)
	}
}

func TestDefaultBudget(t *testing.T) {
	p := New(Default64KB())
	bytes := p.Storage().TotalBytes()
	if bytes < 50*1024 || bytes > 75*1024 {
		t.Fatalf("Default64KB = %d bytes, want ~64KB", bytes)
	}
	p32 := New(Default32KB())
	b32 := p32.Storage().TotalBytes()
	if b32 >= bytes || b32 > 45*1024 {
		t.Fatalf("Default32KB = %d bytes, want ~32KB (< 64KB build)", b32)
	}
}

func TestRecencyStackUniqueInFullMode(t *testing.T) {
	p, s := build(smallCfg(), nil)
	r := rng.New(5)
	for i := 0; i < 20000; i++ {
		pc := uint64(0x100 + (i%6)*4) // 6 alternating branches
		taken := r.Bool(0.5)
		p.Predict(pc)
		p.Update(pc, taken, 0)
	}
	if s.rstack.Len() > 6 {
		t.Fatalf("recency stack holds %d entries for 6 distinct PCs", s.rstack.Len())
	}
}

func TestValidation(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{BSTEntries: 100, BiasEntries: 64, WmRows: 64, WrsEntries: 64, RecentUnfiltered: 4, RSDepth: 4},
		{BSTEntries: 64, BiasEntries: 64, WmRows: 64, WrsEntries: 64},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestAheadPipelinedTradeoff(t *testing.T) {
	// The §VIII ahead-pipelined variant drops the PC from the weight-row
	// hashes. It must remain a functional predictor — clearly better than
	// static — and the accuracy cost relative to the full design should
	// be bounded.
	r := rng.New(21)
	var recs trace.Slice
	for len(recs) < 200000 {
		a := r.Bool(0.5)
		recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
		for i := 0; i < 30; i++ {
			pc := uint64(0x10000 + (i%12)*4)
			recs = append(recs, trace.Record{PC: pc, Taken: true, Instret: 5})
		}
		recs = append(recs, trace.Record{PC: 0x900, Taken: a, Instret: 5})
	}
	full, err := sim.Run(New(smallCfg()), recs.Stream(), sim.Options{Warmup: 20000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	cfg.AheadPipelined = true
	ahead, err := sim.Run(New(cfg), recs.Stream(), sim.Options{Warmup: 20000})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rate: full %.4f, ahead-pipelined %.4f", full.MispredictRate(), ahead.MispredictRate())
	if ahead.MispredictRate() > 0.25 {
		t.Errorf("ahead-pipelined rate %.3f too close to useless", ahead.MispredictRate())
	}
	if ahead.MispredictRate() > full.MispredictRate()*4+0.02 {
		t.Errorf("ahead-pipelined cost too extreme: %.4f vs %.4f",
			ahead.MispredictRate(), full.MispredictRate())
	}
}
