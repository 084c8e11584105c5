package perceptron

import (
	"slices"
	"testing"

	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

func smallCfg(fhist bool) Config {
	return Config{
		HistoryLength: 24,
		TableRows:     1 << 10,
		BiasEntries:   1 << 8,
		FoldedHistory: fhist,
	}
}

func TestLearnsBiasedBranches(t *testing.T) {
	p := New(smallCfg(false))
	recs := make(trace.Slice, 30000)
	for i := range recs {
		pc := uint64(0x1000 + (i%32)*4)
		recs[i] = trace.Record{PC: pc, Taken: pc%8 != 0, Instret: 5}
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if st.MispredictRate() > 0.01 {
		t.Fatalf("rate = %.4f on biased stream, want ~0", st.MispredictRate())
	}
}

func TestLearnsGlobalCorrelationWithinHistory(t *testing.T) {
	// Source branch at distance ~10 (within history length 24).
	p := New(smallCfg(false))
	r := rng.New(2)
	var recs trace.Slice
	for n := 0; n < 8000; n++ {
		a := r.Bool(0.5)
		recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
		for i := 0; i < 9; i++ {
			pc := uint64(0x200 + i*4)
			recs = append(recs, trace.Record{PC: pc, Taken: true, Instret: 5})
		}
		recs = append(recs, trace.Record{PC: 0x300, Taken: !a, Instret: 5})
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 10000})
	if err != nil {
		t.Fatal(err)
	}
	// 1 unpredictable branch per 11; everything else learnable.
	if st.MispredictRate() > 0.08 {
		t.Fatalf("rate = %.4f, want < 0.08 (target branch must be learned)", st.MispredictRate())
	}
}

func TestFailsBeyondHistoryLength(t *testing.T) {
	// Correlation at distance 60 >> history 24: target is unpredictable.
	p := New(smallCfg(false))
	r := rng.New(3)
	var recs trace.Slice
	for n := 0; n < 3000; n++ {
		a := r.Bool(0.5)
		recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
		for i := 0; i < 59; i++ {
			pc := uint64(0x200 + (i%40)*4)
			recs = append(recs, trace.Record{PC: pc, Taken: true, Instret: 5})
		}
		recs = append(recs, trace.Record{PC: 0x900, Taken: a, Instret: 5})
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 10000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	// The target branch at 0x900 should be ~50% mispredicted (its source
	// is out of reach), just like the genuinely random source at 0x100.
	var rate float64 = -1
	for _, o := range st.TopOffenders(10) {
		if o.PC == 0x900 {
			rate = float64(o.Mispredicts) / float64(o.Count)
		}
	}
	if rate < 0.3 {
		t.Fatalf("out-of-reach correlated branch mispredict rate = %.3f, want ~0.5", rate)
	}
}

func TestFoldedHistoryReducesPathAliasing(t *testing.T) {
	// Two paths reach the same source branch B at the same depth with the
	// same source address but opposite correlation polarity depending on
	// the path. Without fhist the two contexts alias to the same weight
	// row; with fhist they separate.
	mk := func(fhist bool) trace.Slice {
		r := rng.New(7)
		var recs trace.Slice
		_ = fhist
		for n := 0; n < 12000; n++ {
			path := r.Bool(0.5)
			a := r.Bool(0.5)
			// Source branch (same PC on both paths).
			recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
			// Path signature: 6 branches whose outcomes differ by path but
			// whose PCs are identical (outcome-only signature).
			for i := 0; i < 6; i++ {
				recs = append(recs, trace.Record{PC: uint64(0x200 + i*4), Taken: path, Instret: 5})
			}
			// Target: correlation polarity depends on the path outcome.
			out := a
			if path {
				out = !a
			}
			recs = append(recs, trace.Record{PC: 0x900, Taken: out, Instret: 5})
		}
		return recs
	}
	run := func(fhist bool) float64 {
		p := New(smallCfg(fhist))
		st, err := sim.Run(p, mk(fhist).Stream(), sim.Options{Warmup: 20000, PerPC: true})
		if err != nil {
			t.Fatal(err)
		}
		top := st.TopOffenders(5)
		for _, o := range top {
			if o.PC == 0x900 {
				return float64(o.Mispredicts) / float64(o.Count)
			}
		}
		return 0
	}
	without := run(false)
	with := run(true)
	t.Logf("target mispredict rate: without fhist %.3f, with fhist %.3f", without, with)
	if with >= without {
		t.Fatalf("fhist should reduce path aliasing: %.3f -> %.3f", without, with)
	}
	if with > 0.10 {
		t.Fatalf("with fhist the target should be nearly perfect, got %.3f", with)
	}
}

func TestAdaptiveThetaMoves(t *testing.T) {
	p := New(smallCfg(false))
	initial := p.theta
	r := rng.New(5)
	for i := 0; i < 50000; i++ {
		pc := uint64(0x100 + (i%8)*4)
		taken := r.Bool(0.5) // pure noise drives theta up
		p.Predict(pc)
		p.Update(pc, taken, 0)
	}
	if p.theta == initial {
		t.Fatal("adaptive theta never moved under noise")
	}
}

func TestDelayedUpdateConsistency(t *testing.T) {
	// With checkpointed training, a delayed update must not corrupt
	// state: accuracy on a biased stream should stay near-perfect.
	p := New(smallCfg(true))
	recs := make(trace.Slice, 20000)
	for i := range recs {
		pc := uint64(0x1000 + (i%16)*4)
		recs[i] = trace.Record{PC: pc, Taken: true, Instret: 5}
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 2000, UpdateDelay: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.MispredictRate() > 0.01 {
		t.Fatalf("delayed-update rate = %.4f, want ~0", st.MispredictRate())
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() trace.Slice {
		r := rng.New(11)
		recs := make(trace.Slice, 5000)
		for i := range recs {
			recs[i] = trace.Record{PC: uint64(0x100 + (i%64)*4), Taken: r.Bool(0.4), Instret: 5}
		}
		return recs
	}
	a, err := sim.Run(New(smallCfg(true)), mk().Stream(), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(New(smallCfg(true)), mk().Stream(), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Mispredicts != b.Mispredicts {
		t.Fatalf("non-deterministic: %d vs %d mispredicts", a.Mispredicts, b.Mispredicts)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{HistoryLength: 0, TableRows: 64, BiasEntries: 64},
		{HistoryLength: 8, TableRows: 100, BiasEntries: 64},
		{HistoryLength: 8, TableRows: 64, BiasEntries: 100},
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

func TestStorageReport(t *testing.T) {
	p := New(Default64KB())
	b := p.Storage()
	if b.TotalBits() == 0 {
		t.Fatal("storage must be non-zero")
	}
	// Default64KB should be in the vicinity of a 64KB budget.
	if b.TotalBytes() > 80*1024 {
		t.Fatalf("Default64KB budget = %d bytes, too large", b.TotalBytes())
	}
}

// TestDenseFillDifferential runs the dense fill against the
// per-position Ring.At loop that was the perceptron's lookup, over the
// paper's 72 positions (more than one packed word holds) with and
// without fold registers, from the first branch on, while the deepest
// positions are still unpopulated.
func TestDenseFillDifferential(t *testing.T) {
	for _, fhist := range []bool{false, true} {
		cfg := Default64KB()
		cfg.FoldedHistory = fhist
		p := New(cfg)
		src := p.spec.Source.(*source)
		h := cfg.HistoryLength
		idx, dirs := make([]int32, h), make([]bool, h)
		r := rng.New(1)
		for step := 0; step < 3000; step++ {
			pc := uint64(0x1000 + r.Intn(64)*4)
			n, _ := src.Fill(pc, idx, dirs)
			pch := rng.Hash64(pc >> 2)
			var want []int32
			var wantDirs []bool
			for i := 1; i <= h; i++ {
				e, ok := src.Ring().At(i)
				if !ok {
					break
				}
				key := pch ^ uint64(e.HashedPC)*0x9e3779b97f4a7c15 ^ uint64(i)<<40
				if fhist {
					key ^= src.Folds().Fold(i) << 17
				}
				want = append(want, int32(rng.Hash64(key)&uint64(cfg.TableRows-1))*int32(h)+int32(i-1))
				wantDirs = append(wantDirs, e.Taken)
			}
			if !slices.Equal(idx[:n], want) || !slices.Equal(dirs[:n], wantDirs) {
				t.Fatalf("fhist %v step %d: dense fill diverges from the per-position reference", fhist, step)
			}
			p.Predict(pc)
			p.Update(pc, r.Bool(0.5), 0)
		}
	}
}
