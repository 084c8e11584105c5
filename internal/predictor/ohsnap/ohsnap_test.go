package ohsnap

import (
	"testing"

	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

func smallCfg() Config {
	return Config{
		Segments: []Segment{
			{Positions: 8, Rows: 1 << 9},
			{Positions: 24, Rows: 1 << 8},
		},
		BiasEntries: 1 << 8,
	}
}

func TestGeometry(t *testing.T) {
	p := New(smallCfg())
	if p.HistoryLength() != 32 {
		t.Fatalf("history length = %d, want 32", p.HistoryLength())
	}
}

func TestLearnsBiasedBranches(t *testing.T) {
	p := New(smallCfg())
	recs := make(trace.Slice, 30000)
	for i := range recs {
		pc := uint64(0x1000 + (i%32)*4)
		recs[i] = trace.Record{PC: pc, Taken: pc%12 != 0, Instret: 5}
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if st.MispredictRate() > 0.01 {
		t.Fatalf("rate = %.4f on biased stream, want ~0", st.MispredictRate())
	}
}

func TestLearnsCorrelationWithinReach(t *testing.T) {
	p := New(smallCfg())
	r := rng.New(2)
	var recs trace.Slice
	for n := 0; n < 8000; n++ {
		a := r.Bool(0.5)
		recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
		for i := 0; i < 12; i++ {
			recs = append(recs, trace.Record{PC: uint64(0x200 + i*4), Taken: true, Instret: 5})
		}
		recs = append(recs, trace.Record{PC: 0x300, Taken: !a, Instret: 5})
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 20000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range st.TopOffenders(10) {
		if o.PC == 0x300 {
			rate := float64(o.Mispredicts) / float64(o.Count)
			if rate > 0.05 {
				t.Fatalf("in-reach correlated branch rate = %.3f, want ~0", rate)
			}
		}
	}
}

func TestFailsBeyondReach(t *testing.T) {
	p := New(smallCfg()) // history 32
	r := rng.New(3)
	var recs trace.Slice
	for n := 0; n < 4000; n++ {
		a := r.Bool(0.5)
		recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
		for i := 0; i < 70; i++ {
			recs = append(recs, trace.Record{PC: uint64(0x200 + (i%48)*4), Taken: true, Instret: 5})
		}
		recs = append(recs, trace.Record{PC: 0x900, Taken: a, Instret: 5})
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 20000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	rate := -1.0
	for _, o := range st.TopOffenders(10) {
		if o.PC == 0x900 {
			rate = float64(o.Mispredicts) / float64(o.Count)
		}
	}
	if rate < 0.3 {
		t.Fatalf("beyond-reach branch rate = %.3f, want ~0.5", rate)
	}
}

func TestCoefficientsAdapt(t *testing.T) {
	p := New(smallCfg())
	before := p.Coefficient(0)
	// Pure noise at one PC: every position is uninformative, so
	// coefficients should drift downward from their initial values.
	r := rng.New(5)
	for i := 0; i < 60000; i++ {
		pc := uint64(0x100)
		p.Predict(pc)
		p.Update(pc, r.Bool(0.5), 0)
	}
	moved := false
	for i := 0; i < p.HistoryLength(); i++ {
		if p.Coefficient(i) != before {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("coefficients never adapted")
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
	a, _ := sim.Run(New(smallCfg()), mk().Stream(), sim.Options{})
	b, _ := sim.Run(New(smallCfg()), mk().Stream(), sim.Options{})
	if a.Mispredicts != b.Mispredicts {
		t.Fatalf("non-deterministic: %d vs %d", a.Mispredicts, b.Mispredicts)
	}
}

func TestDefault64KBBudget(t *testing.T) {
	p := New(Default64KB())
	b := p.Storage()
	if b.TotalBytes() > 72*1024 || b.TotalBytes() < 40*1024 {
		t.Fatalf("Default64KB = %d bytes, want roughly 64KB", b.TotalBytes())
	}
	if p.HistoryLength() != 128 {
		t.Fatalf("Default64KB history = %d, want 128", p.HistoryLength())
	}
}

func TestValidation(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Segments: []Segment{{Positions: 0, Rows: 64}}, BiasEntries: 64},
		{Segments: []Segment{{Positions: 4, Rows: 100}}, BiasEntries: 64},
		{Segments: []Segment{{Positions: 4, Rows: 64}}, BiasEntries: 0},
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
