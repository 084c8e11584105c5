package gehl

import (
	"testing"

	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

func smallCfg() Config {
	return Config{
		Tables:      6,
		LogEntries:  10,
		MinHist:     2,
		MaxHist:     80,
		CounterBits: 5,
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

func TestLearnsCorrelationWithinReach(t *testing.T) {
	p := New(smallCfg()) // reach 80
	r := rng.New(2)
	var recs trace.Slice
	for n := 0; n < 6000; n++ {
		a := r.Bool(0.5)
		recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
		for i := 0; i < 40; i++ {
			recs = append(recs, trace.Record{PC: uint64(0x200 + (i%20)*4), Taken: true, Instret: 5})
		}
		recs = append(recs, trace.Record{PC: 0x900, Taken: a, Instret: 5})
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 40000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range st.TopOffenders(10) {
		if o.PC == 0x900 {
			if rate := float64(o.Mispredicts) / float64(o.Count); rate > 0.10 {
				t.Fatalf("in-reach correlated branch rate = %.3f, want ~0", rate)
			}
		}
	}
}

func TestFailsBeyondReach(t *testing.T) {
	p := New(smallCfg()) // reach 80
	r := rng.New(3)
	var recs trace.Slice
	for n := 0; n < 2500; n++ {
		a := r.Bool(0.5)
		recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
		for i := 0; i < 150; i++ {
			recs = append(recs, trace.Record{PC: uint64(0x200 + (i%60)*4), Taken: true, Instret: 5})
		}
		recs = append(recs, trace.Record{PC: 0x900, Taken: a, Instret: 5})
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 40000, PerPC: true})
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

func TestGeometricSeries(t *testing.T) {
	p := New(smallCfg())
	h := p.Histories()
	if h[0] != 0 {
		t.Fatalf("table 0 history = %d, want 0 (bias)", h[0])
	}
	if h[1] != 2 || h[len(h)-1] != 80 {
		t.Fatalf("series endpoints = %d..%d, want 2..80", h[1], h[len(h)-1])
	}
	for i := 2; i < len(h); i++ {
		if h[i] <= h[i-1] {
			t.Fatalf("series not increasing: %v", h)
		}
	}
}

func TestThetaAdapts(t *testing.T) {
	p := New(smallCfg())
	initial := p.Theta()
	r := rng.New(5)
	for i := 0; i < 50000; i++ {
		pc := uint64(0x100)
		p.Predict(pc)
		p.Update(pc, r.Bool(0.5), 0)
	}
	if p.Theta() == initial {
		t.Fatal("theta never adapted under noise")
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

func TestBudget(t *testing.T) {
	p := New(Default64KB())
	bytes := p.Storage().TotalBytes()
	if bytes < 30*1024 || bytes > 80*1024 {
		t.Fatalf("Default64KB = %d bytes, want ~64KB ballpark", bytes)
	}
}

func TestValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Tables: 1, LogEntries: 10, MinHist: 2, MaxHist: 80, CounterBits: 5},
		{Tables: 4, LogEntries: 1, MinHist: 2, MaxHist: 80, CounterBits: 5},
		{Tables: 4, LogEntries: 10, MinHist: 2, MaxHist: 80, CounterBits: 1},
		{Tables: 4, LogEntries: 10, MinHist: 8, MaxHist: 4, CounterBits: 5},
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
