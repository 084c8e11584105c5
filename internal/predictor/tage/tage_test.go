package tage

import (
	"testing"

	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

func smallCfg(n int) Config {
	hists := ConventionalHistories(n)
	tables := make([]TableConfig, n)
	tags := TagWidths(n)
	for i := range tables {
		tables[i] = TableConfig{HistLen: hists[i], TagBits: tags[i], LogEntries: 9}
	}
	return Config{
		BaseLogEntries: 12,
		Tables:         tables,
		LoopPredictor:  true,
		Seed:           1,
	}
}

func TestConventionalHistorySeries(t *testing.T) {
	h := ConventionalHistories(15)
	if h[0] != 3 || h[14] != 1930 {
		t.Fatalf("15-table series endpoints = %d..%d, want 3..1930", h[0], h[14])
	}
	h10 := ConventionalHistories(10)
	if h10[9] != 195 {
		t.Fatalf("10-table max history = %d, want 195 (§VI-C)", h10[9])
	}
	h7 := ConventionalHistories(7)
	if h7[6] != 67 {
		t.Fatalf("7-table max history = %d, want 67 (~70 bits, §VI-C)", h7[6])
	}
}

func TestLearnsBiasedStream(t *testing.T) {
	p := New(smallCfg(6))
	recs := make(trace.Slice, 30000)
	for i := range recs {
		pc := uint64(0x1000 + (i%64)*4)
		recs[i] = trace.Record{PC: pc, Taken: pc%8 != 0, Instret: 5}
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if st.MispredictRate() > 0.005 {
		t.Fatalf("rate = %.4f on biased stream, want ~0", st.MispredictRate())
	}
}

// corrTrace builds a correlation at the given distance padded by biased
// branches cycling through padSites sites.
func corrTrace(seed uint64, n, distance, padSites int) trace.Slice {
	r := rng.New(seed)
	var recs trace.Slice
	for len(recs) < n {
		a := r.Bool(0.5)
		recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
		for i := 0; i < distance; i++ {
			pc := uint64(0x1000 + (i%padSites)*4)
			recs = append(recs, trace.Record{PC: pc, Taken: true, Instret: 5})
		}
		recs = append(recs, trace.Record{PC: 0x900, Taken: a, Instret: 5})
	}
	return recs
}

func targetRate(t *testing.T, st sim.Stats) float64 {
	t.Helper()
	for _, o := range st.TopOffenders(20) {
		if o.PC == 0x900 {
			return float64(o.Mispredicts) / float64(o.Count)
		}
	}
	return 0
}

func TestLongHistoryTablesCaptureDistantCorrelation(t *testing.T) {
	// Distance 400 requires history > 400: a 15-table TAGE (reach 1930)
	// should learn it; a 10-table TAGE (reach 195) should not.
	tr := corrTrace(3, 250000, 400, 37)
	p15 := New(smallCfg(15))
	st15, err := sim.Run(p15, tr.Stream(), sim.Options{Warmup: 50000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	p10 := New(smallCfg(10))
	st10, err := sim.Run(p10, tr.Stream(), sim.Options{Warmup: 50000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	r15 := targetRate(t, st15)
	r10 := targetRate(t, st10)
	t.Logf("distance-400 target mispredict rate: tage-15 %.3f, tage-10 %.3f", r15, r10)
	if r15 > 0.15 {
		t.Errorf("tage-15 rate = %.3f, want < 0.15 (reach 1930)", r15)
	}
	if r10 < 0.30 {
		t.Errorf("tage-10 rate = %.3f, want ~0.5 (reach 195 < 400)", r10)
	}
}

func TestShortCorrelationAllSizes(t *testing.T) {
	// Distance 12: the source is at depth 13, within even tage-4's
	// longest history of 17.
	tr := corrTrace(5, 120000, 12, 7)
	for _, n := range []int{4, 7, 10} {
		p := New(smallCfg(n))
		st, err := sim.Run(p, tr.Stream(), sim.Options{Warmup: 20000, PerPC: true})
		if err != nil {
			t.Fatal(err)
		}
		if r := targetRate(t, st); r > 0.10 {
			t.Errorf("tage-%d distance-20 target rate = %.3f, want ~0", n, r)
		}
	}
}

func TestLoopPredictorComponent(t *testing.T) {
	// A constant 40-iteration loop: beyond bimodal's reach to time the
	// exit, but exactly what the loop component nails.
	mk := func() trace.Slice {
		var recs trace.Slice
		for len(recs) < 120000 {
			for i := 0; i < 40; i++ {
				recs = append(recs, trace.Record{PC: 0x500, Taken: i != 39, Instret: 5})
				recs = append(recs, trace.Record{PC: 0x600, Taken: true, Instret: 5})
			}
		}
		return recs
	}
	cfgNoLoop := smallCfg(5)
	cfgNoLoop.LoopPredictor = false
	noLoop, err := sim.Run(New(cfgNoLoop), mk().Stream(), sim.Options{Warmup: 20000})
	if err != nil {
		t.Fatal(err)
	}
	withLoop, err := sim.Run(New(smallCfg(5)), mk().Stream(), sim.Options{Warmup: 20000})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("const-loop rate: without loop pred %.4f, with %.4f",
		noLoop.MispredictRate(), withLoop.MispredictRate())
	if withLoop.MispredictRate() > noLoop.MispredictRate() {
		t.Errorf("loop predictor made things worse: %.4f -> %.4f",
			noLoop.MispredictRate(), withLoop.MispredictRate())
	}
	if withLoop.MispredictRate() > 0.003 {
		t.Errorf("with loop predictor rate = %.4f, want ~0", withLoop.MispredictRate())
	}
}

func TestProviderHistogramShiftsWithDistance(t *testing.T) {
	// Short-distance correlations should be provided by short-history
	// tables; long-distance ones by long-history tables.
	p := New(smallCfg(15))
	tr := corrTrace(9, 150000, 150, 23)
	st, err := sim.Run(p, tr.Stream(), sim.Options{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	hits := st.Provenance.BankHits
	if len(hits) != 16 {
		t.Fatalf("provider hits len = %d, want 16", len(hits))
	}
	var total uint64
	for _, h := range hits {
		total += h
	}
	if total == 0 {
		t.Fatal("no provider hits recorded")
	}
	// Tables with history >= 150 are 9..15 (lengths 138 is close; use >=
	// table 10, length 195). At least some predictions must come from
	// long-history tables.
	var longHits uint64
	for i := 10; i < len(hits); i++ {
		longHits += hits[i]
	}
	if longHits == 0 {
		t.Error("no predictions provided by long-history tables on a distance-150 workload")
	}
}

func TestIUMWithDelayedUpdate(t *testing.T) {
	// A tight loop on one branch with delayed updates: the IUM forwards
	// in-flight predictions for the same entry. It must not hurt.
	mk := func() trace.Slice {
		r := rng.New(4)
		var recs trace.Slice
		for n := 0; n < 100000; n++ {
			recs = append(recs, trace.Record{PC: 0x700, Taken: r.Bool(0.9), Instret: 5})
		}
		return recs
	}
	cfg := smallCfg(6)
	cfg.IUM = true
	with, err := sim.Run(New(cfg), mk().Stream(), sim.Options{Warmup: 10000, UpdateDelay: 12})
	if err != nil {
		t.Fatal(err)
	}
	cfg.IUM = false
	without, err := sim.Run(New(cfg), mk().Stream(), sim.Options{Warmup: 10000, UpdateDelay: 12})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("delayed-update rate: ium %.4f, no-ium %.4f", with.MispredictRate(), without.MispredictRate())
	if with.MispredictRate() > without.MispredictRate()+0.02 {
		t.Errorf("IUM hurt accuracy: %.4f vs %.4f", with.MispredictRate(), without.MispredictRate())
	}
}

func TestDeterminism(t *testing.T) {
	tr := corrTrace(11, 40000, 30, 9)
	a, _ := sim.Run(New(smallCfg(8)), tr.Stream(), sim.Options{})
	b, _ := sim.Run(New(smallCfg(8)), tr.Stream(), sim.Options{})
	if a.Mispredicts != b.Mispredicts {
		t.Fatalf("non-deterministic: %d vs %d", a.Mispredicts, b.Mispredicts)
	}
}

func TestConventionalConfigBudgets(t *testing.T) {
	// The paper sizes every table count to (virtually) the same budget.
	var budgets []int
	for _, n := range []int{4, 7, 10, 15} {
		p := New(Conventional(n))
		bytes := p.Storage().TotalBytes()
		budgets = append(budgets, bytes)
		if bytes < 30*1024 || bytes > 80*1024 {
			t.Errorf("isl-tage-%d budget = %d bytes, want within ~2x of 51KB", n, bytes)
		}
	}
	t.Logf("budgets for 4/7/10/15 tables: %v bytes", budgets)
}

func TestStatisticalCorrectorDoesNotHurt(t *testing.T) {
	tr := corrTrace(13, 100000, 25, 9)
	base, err := sim.Run(New(smallCfg(7)), tr.Stream(), sim.Options{Warmup: 10000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(7)
	cfg.StatisticalCorrector = true
	sc, err := sim.Run(New(cfg), tr.Stream(), sim.Options{Warmup: 10000})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rate: plain %.4f, with SC %.4f", base.MispredictRate(), sc.MispredictRate())
	if sc.MispredictRate() > base.MispredictRate()+0.01 {
		t.Errorf("SC hurt accuracy: %.4f vs %.4f", sc.MispredictRate(), base.MispredictRate())
	}
}

func TestValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(Config{BaseLogEntries: 12}) },
		func() { New(Config{BaseLogEntries: 1, Tables: []TableConfig{{HistLen: 3, TagBits: 7, LogEntries: 9}}}) },
		func() {
			New(Config{BaseLogEntries: 12, Tables: []TableConfig{
				{HistLen: 5, TagBits: 7, LogEntries: 9},
				{HistLen: 5, TagBits: 7, LogEntries: 9},
			}})
		},
		func() { ConventionalHistories(16) },
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

// A conventional GHR bank reaches exactly as many raw branches as its
// history length — the baseline side of the paper-shape reach check.
func TestBankReachIsHistoryLength(t *testing.T) {
	cfg := ConventionalBare(8)
	p := New(cfg)
	var tagged int
	for _, b := range p.ProbeState().Banks {
		if b.Kind != "tagged" {
			continue
		}
		if want := cfg.Tables[tagged].HistLen; b.HistLen != want || b.Reach != want {
			t.Fatalf("bank %d: hist %d reach %d, want both %d", b.Bank, b.HistLen, b.Reach, want)
		}
		tagged++
	}
	if tagged != len(cfg.Tables) {
		t.Fatalf("%d tagged banks, want %d", tagged, len(cfg.Tables))
	}
}
