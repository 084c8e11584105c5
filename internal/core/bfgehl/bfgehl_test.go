package bfgehl

import (
	"testing"

	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

func smallCfg() Config {
	return Config{
		Tables:         6,
		LogEntries:     11,
		UnfilteredBits: 16,
		SegBounds:      []int{16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048},
		SegSize:        8,
		BSTEntries:     1 << 12,
		CounterBits:    5,
	}
}

func TestLearnsBiasedStream(t *testing.T) {
	p := New(smallCfg())
	recs := make(trace.Slice, 30000)
	for i := range recs {
		pc := uint64(0x1000 + (i%48)*4)
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

func TestCapturesDeepCorrelationThroughBiasedPads(t *testing.T) {
	// Distance 400 through biased pads: far beyond a conventional GEHL's
	// raw history budget at this size, but within the BF-GHR.
	r := rng.New(2)
	var recs trace.Slice
	for len(recs) < 400000 {
		for i := 0; i < 120; i++ {
			pc := uint64(0x10000 + (i%20)*4)
			recs = append(recs, trace.Record{PC: pc, Taken: true, Instret: 5})
		}
		a := r.Bool(0.5)
		recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
		for i := 0; i < 400; i++ {
			pc := uint64(0x10000 + (i%20)*4)
			recs = append(recs, trace.Record{PC: pc, Taken: true, Instret: 5})
		}
		recs = append(recs, trace.Record{PC: 0x900, Taken: a, Instret: 5})
	}
	p := New(smallCfg())
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 80000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	rate := -1.0
	for _, o := range st.TopOffenders(20) {
		if o.PC == 0x900 {
			rate = float64(o.Mispredicts) / float64(o.Count)
		}
	}
	t.Logf("bf-gehl distance-400 target rate: %.4f", rate)
	if rate < 0 {
		rate = 0
	}
	if rate > 0.15 {
		t.Fatalf("bf-gehl failed a distance-400 correlation: %.3f", rate)
	}
}

func TestGHRWidth(t *testing.T) {
	_, h := build(smallCfg())
	if h.Bits() != 144 {
		t.Fatalf("BF-GHR = %d bits, want 144", h.Bits())
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() trace.Slice {
		r := rng.New(11)
		recs := make(trace.Slice, 5000)
		for i := range recs {
			recs[i] = trace.Record{PC: uint64(0x100 + (i%32)*4), Taken: r.Bool(0.4), Instret: 5}
		}
		return recs
	}
	a, _ := sim.Run(New(smallCfg()), mk().Stream(), sim.Options{})
	b, _ := sim.Run(New(smallCfg()), mk().Stream(), sim.Options{})
	if a.Mispredicts != b.Mispredicts {
		t.Fatalf("non-deterministic: %d vs %d", a.Mispredicts, b.Mispredicts)
	}
}

func TestValidation(t *testing.T) {
	for _, f := range []func(){
		func() {
			c := smallCfg()
			c.Tables = 1
			New(c)
		},
		func() {
			c := smallCfg()
			c.BSTEntries = 100
			New(c)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid config did not panic")
				}
			}()
			f()
		}()
	}
}

func TestBudget(t *testing.T) {
	if New(Default64KB()).Storage().TotalBytes() > 80*1024 {
		t.Fatal("Default64KB oversized")
	}
}
