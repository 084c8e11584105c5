package strided

import (
	"testing"

	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

func smallCfg() Config {
	return Config{
		Offsets:     []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256},
		TableRows:   1 << 9,
		BiasEntries: 1 << 8,
	}
}

func TestDefaultOffsetsShape(t *testing.T) {
	offs := DefaultOffsets()
	for i := 1; i < len(offs); i++ {
		if offs[i] <= offs[i-1] {
			t.Fatalf("offsets not increasing: %v", offs)
		}
	}
	if offs[len(offs)-1] < 1000 {
		t.Fatalf("deepest offset = %d, want ~1024", offs[len(offs)-1])
	}
	if offs[0] != 1 || offs[15] != 16 {
		t.Fatal("offsets should be dense over the first 16 positions")
	}
}

func TestLearnsBiasedStream(t *testing.T) {
	p := New(smallCfg())
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

// corr builds a correlation at an exact distance.
func corr(seed uint64, n, distance int) trace.Slice {
	r := rng.New(seed)
	var recs trace.Slice
	for len(recs) < n {
		a := r.Bool(0.5)
		recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
		for i := 0; i < distance; i++ {
			recs = append(recs, trace.Record{PC: uint64(0x2000 + (i%24)*4), Taken: true, Instret: 5})
		}
		recs = append(recs, trace.Record{PC: 0x900, Taken: a, Instret: 5})
	}
	return recs
}

func rateOf(t *testing.T, st sim.Stats, pc uint64) float64 {
	t.Helper()
	for _, o := range st.TopOffenders(20) {
		if o.PC == pc {
			return float64(o.Mispredicts) / float64(o.Count)
		}
	}
	return 0
}

func TestCapturesCorrelationAtSampledOffset(t *testing.T) {
	// Distance 127: source at depth 128 — exactly a sampled offset of
	// the small config. The strided design's selling point.
	p := New(smallCfg())
	tr := corr(2, 200000, 127)
	st, err := sim.Run(p, tr.Stream(), sim.Options{Warmup: 40000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	if r := rateOf(t, st, 0x900); r > 0.10 {
		t.Fatalf("correlation at sampled offset: rate = %.3f, want ~0", r)
	}
}

func TestMissesCorrelationBetweenStrides(t *testing.T) {
	// Distance 155: source at depth 156, which falls between the sampled
	// offsets 128 and 192 — the design's blind spot, and exactly what
	// the Bias-Free predictor's adaptive reach avoids.
	p := New(smallCfg())
	tr := corr(3, 200000, 155)
	st, err := sim.Run(p, tr.Stream(), sim.Options{Warmup: 40000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rateOf(t, st, 0x900)
	t.Logf("between-strides rate: %.3f", r)
	if r < 0.30 {
		t.Fatalf("between-strides correlation rate = %.3f, want ~0.5 (blind spot)", r)
	}
}

func TestReach(t *testing.T) {
	if got := New(smallCfg()).Reach(); got != 256 {
		t.Fatalf("Reach = %d, want 256", got)
	}
	if got := New(Default64KB()).Reach(); got < 1000 {
		t.Fatalf("default reach = %d, want >= 1000", got)
	}
}

func TestDeterminism(t *testing.T) {
	tr := corr(11, 40000, 30)
	a, _ := sim.Run(New(smallCfg()), tr.Stream(), sim.Options{})
	b, _ := sim.Run(New(smallCfg()), tr.Stream(), sim.Options{})
	if a.Mispredicts != b.Mispredicts {
		t.Fatalf("non-deterministic: %d vs %d", a.Mispredicts, b.Mispredicts)
	}
}

func TestValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Offsets: []int{4, 4}, TableRows: 64, BiasEntries: 64},
		{Offsets: []int{0, 3}, TableRows: 64, BiasEntries: 64},
		{Offsets: []int{-5, 3}, TableRows: 64, BiasEntries: 64},
		{Offsets: []int{1, 2}, TableRows: 100, BiasEntries: 64},
		{Offsets: []int{1, 2}, TableRows: 64, BiasEntries: 100},
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
