package bftage

import (
	"testing"

	"bfbp/internal/bfghr"
	"bfbp/internal/bst"
	"bfbp/internal/predictor/tage"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

// smallCfg returns a reduced BF-TAGE for fast tests: n tables over the
// paper's segmentation with small tables.
func smallCfg(n int) Config {
	hists := Histories(n)
	tags := tage.TagWidths(n)
	tables := make([]tage.TableConfig, n)
	for i := range tables {
		tables[i] = tage.TableConfig{HistLen: hists[i], TagBits: tags[i], LogEntries: 9}
	}
	return Config{
		BaseLogEntries: 12,
		Tables:         tables,
		UnfilteredBits: 16,
		SegBounds:      bfghr.PaperSegBounds(),
		SegSize:        8,
		BSTEntries:     1 << 12,
		LoopPredictor:  true,
		Seed:           1,
	}
}

func TestPaperHistories(t *testing.T) {
	h := Histories(10)
	want := []int{3, 8, 14, 26, 40, 54, 70, 94, 118, 142}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("Histories(10) = %v, want %v", h, want)
		}
	}
}

func TestGHRWidth(t *testing.T) {
	_, h := build(smallCfg(10))
	// 16 unfiltered + 16 segments x 8 = 144 bits.
	if h.Bits() != 144 {
		t.Fatalf("BF-GHR = %d bits, want 144", h.Bits())
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

// corrTrace: source, `distance` biased pads, correlated target.
func corrTrace(seed uint64, n, distance, padSites int) trace.Slice {
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

func TestCapturesDistance400WithTenTables(t *testing.T) {
	// The headline: a correlation at unfiltered distance 400 — beyond a
	// conventional 10-table TAGE's 195-bit reach — lands within the
	// BF-GHR because the 400 biased pads are filtered out.
	tr := corrTrace(3, 250000, 400, 37)
	p := New(smallCfg(10))
	st, err := sim.Run(p, tr.Stream(), sim.Options{Warmup: 60000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rateOf(t, st, 0x900)
	t.Logf("bf-tage-10 distance-400 target rate: %.4f", r)
	if r > 0.15 {
		t.Fatalf("bf-tage-10 failed distance-400 through biased pads: %.3f", r)
	}
}

func TestCapturesDistance1200(t *testing.T) {
	tr := corrTrace(5, 400000, 1200, 53)
	p := New(smallCfg(10))
	st, err := sim.Run(p, tr.Stream(), sim.Options{Warmup: 100000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rateOf(t, st, 0x900)
	t.Logf("bf-tage-10 distance-1200 target rate: %.4f", r)
	if r > 0.20 {
		t.Fatalf("bf-tage-10 failed distance-1200: %.3f", r)
	}
}

func TestShortCorrelation(t *testing.T) {
	tr := corrTrace(7, 120000, 10, 5)
	p := New(smallCfg(10))
	st, err := sim.Run(p, tr.Stream(), sim.Options{Warmup: 20000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	if r := rateOf(t, st, 0x900); r > 0.10 {
		t.Fatalf("short-distance target rate = %.3f, want ~0", r)
	}
}

func TestBankHitsShiftToShorterTables(t *testing.T) {
	// Fig. 12's claim: for the same deep-correlation workload, BF-TAGE
	// satisfies branches from lower-numbered tables than a conventional
	// TAGE, because the BF-GHR compresses the distance.
	tr := corrTrace(9, 250000, 400, 37)
	bf := New(smallCfg(10))
	st, err := sim.Run(bf, tr.Stream(), sim.Options{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	bfHits := st.Provenance.BankHits
	// The target branch needs the source at BF-GHR depth ~= number of
	// distinct non-biased branches + unfiltered 16; that is << 144, so
	// some mid-table (not the base) should provide and the tagged tables
	// must carry a solid share of predictions.
	var tagged, total uint64
	for i, h := range bfHits {
		total += h
		if i >= 1 {
			tagged += h
		}
	}
	if total == 0 || tagged == 0 {
		t.Fatalf("provider histogram empty: %v", bfHits)
	}
	t.Logf("bf-tage provider histogram: %v", bfHits)
}

func TestOracleClassifierRecoversPhaseWorkload(t *testing.T) {
	// §VI-D: SERV3-style phase churn hurts dynamic detection; a static
	// profile-assisted classification restores accuracy.
	mk := func() trace.Slice {
		r := rng.New(3)
		var recs trace.Slice
		phase := 0
		for len(recs) < 200000 {
			phase++
			dir := (phase/400)%2 == 0
			for j := 0; j < 8; j++ {
				recs = append(recs, trace.Record{PC: uint64(0x4000 + j*4), Taken: dir, Instret: 5})
			}
			a := r.Bool(0.5)
			recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
			for i := 0; i < 60; i++ {
				recs = append(recs, trace.Record{PC: uint64(0x10000 + (i%20)*4), Taken: true, Instret: 5})
			}
			recs = append(recs, trace.Record{PC: 0x900, Taken: a, Instret: 5})
		}
		return recs
	}
	oracle := bst.NewOracle()
	for _, rec := range mk() {
		oracle.Observe(rec.PC, rec.Taken)
	}
	cfgO := smallCfg(10)
	cfgO.Classifier = oracle
	oStats, err := sim.Run(New(cfgO), mk().Stream(), sim.Options{Warmup: 40000})
	if err != nil {
		t.Fatal(err)
	}
	dStats, err := sim.Run(New(smallCfg(10)), mk().Stream(), sim.Options{Warmup: 40000})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("phase workload rate: oracle %.4f, dynamic %.4f",
		oStats.MispredictRate(), dStats.MispredictRate())
	if oStats.MispredictRate() > dStats.MispredictRate()+0.005 {
		t.Errorf("oracle BST (%.4f) should not lose to dynamic (%.4f)",
			oStats.MispredictRate(), dStats.MispredictRate())
	}
}

func TestDeterminism(t *testing.T) {
	tr := corrTrace(11, 60000, 50, 11)
	a, _ := sim.Run(New(smallCfg(8)), tr.Stream(), sim.Options{})
	b, _ := sim.Run(New(smallCfg(8)), tr.Stream(), sim.Options{})
	if a.Mispredicts != b.Mispredicts {
		t.Fatalf("non-deterministic: %d vs %d", a.Mispredicts, b.Mispredicts)
	}
}

func TestConventionalBudgetsTrackTAGE(t *testing.T) {
	// §VI-C / Table I: BF-TAGE with n tables uses virtually the same
	// storage as ISL-TAGE with n tables.
	for _, n := range []int{4, 7, 10} {
		bf := New(Conventional(n)).Storage().TotalBytes()
		tg := tageBudget(n)
		ratio := float64(bf) / float64(tg)
		t.Logf("n=%d: bf-tage %d bytes, isl-tage %d bytes (ratio %.2f)", n, bf, tg, ratio)
		if ratio < 0.75 || ratio > 1.35 {
			t.Errorf("n=%d: budget ratio %.2f, want ~1.0", n, ratio)
		}
	}
}

func tageBudget(n int) int {
	return tageNew(n).Storage().TotalBytes()
}

func tageNew(n int) *tage.Predictor {
	return tage.New(tage.Conventional(n))
}

func TestValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(Config{BaseLogEntries: 12}) },
		func() {
			cfg := smallCfg(4)
			cfg.Tables[0].HistLen = 500 // exceeds BF-GHR
			cfg.Tables[1].HistLen = 501
			cfg.Tables[2].HistLen = 502
			cfg.Tables[3].HistLen = 503
			New(cfg)
		},
		func() {
			cfg := smallCfg(4)
			cfg.BSTEntries = 100
			New(cfg)
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

// TestValidationTableGeometry requires New to reject per-table sizes
// outside the TAGE engine's envelope. Tags are stored as uint16, so a wider tag
// would be truncated on allocation and that entry could never hit again.
func TestValidationTableGeometry(t *testing.T) {
	for _, c := range []struct {
		logEntries, tagBits int
		want                string
	}{
		{3, 9, "tage: LogEntries out of range"},
		{23, 9, "tage: LogEntries out of range"},
		{10, 3, "tage: TagBits out of range"},
		{10, 17, "tage: TagBits out of range"},
	} {
		cfg := smallCfg(4)
		cfg.Tables[2].LogEntries = c.logEntries
		cfg.Tables[2].TagBits = c.tagBits
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("LogEntries %d TagBits %d: panic %v, want %q", c.logEntries, c.tagBits, got, c.want)
				}
			}()
			New(cfg)
		}()
	}
}

// The reach mapping behind the paper-shape check: a bank consuming L
// compressed bits sees the 16 unfiltered branches directly, then one
// recency-stack segment per further 8 bits, reaching that segment's
// upper depth bound. The deepest paper bank (142 bits) reaches 2048 raw
// branches — conventional TAGE would need 1930 history bits for that.
func TestBankReachMapping(t *testing.T) {
	p := New(ConventionalBare(8))
	want := []int{3, 5, 9, 16, 48, 80, 320, 2048}
	var got []int
	for _, b := range p.ProbeState().Banks {
		if b.Kind == "tagged" {
			got = append(got, b.Reach)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("tagged bank reach = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tagged bank reach = %v, want %v", got, want)
		}
	}
}
