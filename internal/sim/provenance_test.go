package sim

import (
	"context"
	"strings"
	"testing"

	"bfbp/internal/obs"
	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

// scriptedExplainer predicts a fixed direction and explains each PC
// with a canned provenance, so tests control every taxonomy input.
type scriptedExplainer struct {
	StaticPredictor
	prov map[uint64]Provenance
}

func (e *scriptedExplainer) Explain(pc uint64) Provenance { return e.prov[pc] }

func TestExplainOffLeavesProvenanceNil(t *testing.T) {
	tr := mkTrace([]bool{true, false, true})
	st, err := Run(&StaticPredictor{Direction: true}, tr.Stream(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Provenance != nil {
		t.Fatal("Provenance must be nil without Options.Explain")
	}
	// Explain on a predictor without Explainer is a silent no-op.
	st, err = Run(&StaticPredictor{Direction: true}, tr.Stream(), Options{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Provenance != nil {
		t.Fatal("Provenance must stay nil for non-Explainer predictors")
	}
}

func TestExplainCollectsAttribution(t *testing.T) {
	// 0xA: always taken (correct under static-taken), provided by tagged
	// bank 1. 0xB: always not-taken (every occurrence mispredicts),
	// provided by the base table.
	recs := make(trace.Slice, 0, 40)
	for i := 0; i < 20; i++ {
		recs = append(recs,
			trace.Record{PC: 0xA, Taken: true, Instret: 5},
			trace.Record{PC: 0xB, Taken: false, Instret: 5})
	}
	p := &scriptedExplainer{
		StaticPredictor: StaticPredictor{Direction: true},
		prov: map[uint64]Provenance{
			0xA: {Component: "tagged", Confidence: 5, Banks: 3, Provider: 1, Alt: -1},
			0xB: {Component: "base", Confidence: 1, Banks: 3, Provider: -1, Alt: -1},
		},
	}
	st, err := Run(p, recs.Stream(), Options{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	pv := st.Provenance
	if pv == nil {
		t.Fatal("no provenance collected")
	}
	if pv.Explained != 40 {
		t.Fatalf("Explained = %d, want 40", pv.Explained)
	}
	if c := pv.Components["tagged"]; c == nil || c.Predictions != 20 || c.Mispredicts != 0 {
		t.Fatalf("tagged component = %+v, want 20/0", c)
	}
	if c := pv.Components["base"]; c == nil || c.Predictions != 20 || c.Mispredicts != 20 {
		t.Fatalf("base component = %+v, want 20/20", c)
	}
	// Bank attribution: provider -1 maps to slot 0 (base), provider 1 to
	// slot 2; Banks=3 sizes the slices to 4.
	wantHits := []uint64{20, 0, 20, 0}
	wantMiss := []uint64{20, 0, 0, 0}
	if len(pv.BankHits) != 4 || len(pv.BankMisses) != 4 {
		t.Fatalf("bank slices = %d/%d entries, want 4/4", len(pv.BankHits), len(pv.BankMisses))
	}
	for i := range wantHits {
		if pv.BankHits[i] != wantHits[i] || pv.BankMisses[i] != wantMiss[i] {
			t.Fatalf("bank %d = %d hits / %d misses, want %d/%d",
				i, pv.BankHits[i], pv.BankMisses[i], wantHits[i], wantMiss[i])
		}
	}
	// 0xB's first 16 occurrences are cold; the remaining 4 are weak base
	// counters (Banks > 0, Confidence <= 1).
	if pv.Causes[CauseColdSite] != 16 || pv.Causes[CauseLowConfidence] != 4 {
		t.Fatalf("causes = %v, want cold_site:16 low_confidence:4", pv.Causes)
	}
	if pv.Mispredicts() != 20 || pv.Mispredicts() != st.Mispredicts {
		t.Fatalf("cause total %d disagrees with Stats.Mispredicts %d",
			pv.Mispredicts(), st.Mispredicts)
	}
	// Every explained branch records its margin: Confidence-Threshold
	// is 5 for 0xA (bucket for (4,8]) and 1 for 0xB (bucket for (0,2]).
	if pv.MarginSamples != pv.Explained {
		t.Fatalf("MarginSamples = %d, want Explained = %d", pv.MarginSamples, pv.Explained)
	}
	if pv.MarginSamples != 40 {
		t.Fatalf("MarginSamples = %d, want 40", pv.MarginSamples)
	}
	if pv.MarginCounts[marginBucket(5)] != 20 || pv.MarginCounts[marginBucket(1)] != 20 {
		t.Fatalf("margin counts = %v", pv.MarginCounts)
	}
}

func TestExplainWarmupCountsTowardColdSites(t *testing.T) {
	// 20 occurrences of one always-not-taken site with 16 in warmup: the
	// 4 post-warmup misses must NOT classify cold — the recorder saw the
	// warmup occurrences.
	recs := make(trace.Slice, 20)
	for i := range recs {
		recs[i] = trace.Record{PC: 0xB, Taken: false, Instret: 5}
	}
	p := &scriptedExplainer{
		StaticPredictor: StaticPredictor{Direction: true},
		prov: map[uint64]Provenance{
			0xB: {Component: "base", Confidence: 1, Banks: 3, Provider: -1},
		},
	}
	st, err := Run(p, recs.Stream(), Options{Warmup: 16, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	pv := st.Provenance
	if pv.Explained != 4 {
		t.Fatalf("Explained = %d, want 4 (post-warmup only)", pv.Explained)
	}
	if pv.Causes[CauseColdSite] != 0 || pv.Causes[CauseLowConfidence] != 4 {
		t.Fatalf("causes = %v, want low_confidence:4 and no cold_site", pv.Causes)
	}
}

func TestClassifyCause(t *testing.T) {
	cases := []struct {
		name  string
		prov  Provenance
		prior uint64
		want  string
	}{
		{"bst-notfound", Provenance{BiasState: "NotFound"}, 100, CauseColdSite},
		{"few-occurrences", Provenance{Component: "tagged", Banks: 4}, 3, CauseColdSite},
		{"filter-flip", Provenance{FilterDecision: true, BiasState: "Taken"}, 50, CauseBiasTransition},
		{"fresh-alloc", Provenance{Banks: 4, Provider: 2, NewlyAllocated: true}, 50, CauseTagConflict},
		{"below-theta", Provenance{Component: "perceptron", Confidence: 10, Threshold: 20}, 50, CauseLowConfidence},
		{"weak-counter-before-alt", Provenance{Banks: 4, Provider: 1, Component: "tagged",
			Confidence: 1, ProviderPred: true, AltPred: false}, 50, CauseLowConfidence},
		{"provider-vs-alt", Provenance{Banks: 4, Provider: 1, Component: "tagged",
			Confidence: 5, ProviderPred: true, AltPred: false}, 50, CauseProviderAlt},
		{"strong-adder", Provenance{Component: "adder", Confidence: 50, Threshold: 20}, 50, CauseOther},
	}
	for _, tc := range cases {
		if got := classifyCause(&tc.prov, tc.prior); got != tc.want {
			t.Errorf("%s: classifyCause = %s, want %s", tc.name, got, tc.want)
		}
	}
	// Every classification result must be a member of the published
	// taxonomy, in order.
	seen := map[string]bool{}
	for _, c := range Causes() {
		seen[c] = true
	}
	for _, tc := range cases {
		if !seen[tc.want] {
			t.Errorf("cause %s missing from Causes()", tc.want)
		}
	}
}

func TestTopWeightContribs(t *testing.T) {
	ws := []WeightContrib{{0, 3}, {1, -7}, {2, 5}, {3, -3}}
	got := TopWeightContribs(ws, 2)
	if len(got) != 2 || got[0] != (WeightContrib{1, -7}) || got[1] != (WeightContrib{2, 5}) {
		t.Fatalf("TopWeightContribs = %v", got)
	}
	// Magnitude ties break position-ascending.
	tie := TopWeightContribs([]WeightContrib{{5, 4}, {2, -4}}, 2)
	if tie[0].Position != 2 {
		t.Fatalf("tie order = %v, want position 2 first", tie)
	}
}

func TestMarginBucket(t *testing.T) {
	bounds := MarginBounds()
	for margin, want := range map[float64]int{
		-100: 0, -64: 0, -63: 1, 0: 6, 1: 7, 64: 12, 65: len(bounds),
	} {
		if got := marginBucket(margin); got != want {
			t.Errorf("marginBucket(%v) = %d, want %d", margin, got, want)
		}
	}
}

func TestStatsMergeProvenance(t *testing.T) {
	mk := func() *ProvenanceStats {
		pv := NewProvenanceStats()
		pv.Explained = 10
		pv.Causes[CauseColdSite] = 2
		pv.Components["base"] = &ComponentStat{Predictions: 10, Mispredicts: 2}
		pv.BankHits = []uint64{8, 2}
		pv.BankMisses = []uint64{2, 0}
		pv.MarginSamples = 1
		pv.MarginCounts[0] = 1
		return pv
	}

	t.Run("both-nil-stays-nil", func(t *testing.T) {
		a, b := Stats{}, Stats{}
		a.Merge(b)
		if a.Provenance != nil {
			t.Fatal("merge invented provenance")
		}
	})

	t.Run("nil-gains-copy", func(t *testing.T) {
		var a Stats
		b := Stats{Provenance: mk()}
		a.Merge(b)
		if a.Provenance == nil || a.Provenance.Explained != 10 {
			t.Fatalf("merged provenance = %+v", a.Provenance)
		}
		// The copy must be independent of the source shard.
		a.Provenance.Causes[CauseColdSite] = 99
		if b.Provenance.Causes[CauseColdSite] != 2 {
			t.Fatal("merge aliased the source shard's maps")
		}
	})

	t.Run("shards-add-and-banks-pad", func(t *testing.T) {
		a := Stats{Provenance: mk()}
		b := Stats{Provenance: mk()}
		// Shard b saw a deeper provider (engine shards can differ when a
		// predictor allocates lazily).
		b.Provenance.BankHits = []uint64{8, 2, 5}
		b.Provenance.BankMisses = []uint64{2, 0, 1}
		a.Merge(b)
		pv := a.Provenance
		if pv.Explained != 20 || pv.Causes[CauseColdSite] != 4 || pv.MarginSamples != 2 {
			t.Fatalf("merged scalars = %+v", pv)
		}
		if c := pv.Components["base"]; c.Predictions != 20 || c.Mispredicts != 4 {
			t.Fatalf("merged component = %+v", c)
		}
		wantHits := []uint64{16, 4, 5}
		for i, h := range wantHits {
			if pv.BankHits[i] != h {
				t.Fatalf("BankHits = %v, want %v", pv.BankHits, wantHits)
			}
		}
		if pv.BankMisses[2] != 1 {
			t.Fatalf("BankMisses = %v", pv.BankMisses)
		}
	})
}

// constExplainer explains every PC identically, for engine-level tests.
type constExplainer struct {
	StaticPredictor
	p Provenance
}

func (e *constExplainer) Explain(pc uint64) Provenance { return e.p }

func TestEngineExplainedRunJournalAndMetrics(t *testing.T) {
	var buf strings.Builder
	j := obs.NewJournal(&buf)
	reg := obs.NewRegistry()
	m := NewEngineMetrics(reg)
	eng := Engine{Workers: 1, Journal: j, Metrics: m}
	s, ok := workload.ByName("INT2")
	if !ok {
		t.Fatal("INT2 missing")
	}
	spec := PredictorSpec{Name: "exp", New: func() Predictor {
		return &constExplainer{
			StaticPredictor: StaticPredictor{Direction: true},
			p:               Provenance{Component: "adder", Confidence: 3, Threshold: 10},
		}
	}}
	jobs := Matrix([]TraceSource{s.Source(20_000)}, []PredictorSpec{spec},
		Options{Warmup: 2_000, Explain: true})
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, frag := range []string{
		`"event":"provenance"`, `"event":"component_attribution"`,
		`"causes":{`, `"margin_counts":[`, `"components":[{"name":"adder"`,
	} {
		if !strings.Contains(got, frag) {
			t.Fatalf("journal missing %q:\n%s", frag, got)
		}
	}

	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"bfbp_mispredict_total", `cause="low_confidence"`, `predictor="exp"`,
	} {
		if !strings.Contains(prom.String(), frag) {
			t.Fatalf("metrics export missing %q:\n%s", frag, prom.String())
		}
	}

	// The same suite without Explain must emit no provenance events.
	var off strings.Builder
	j2 := obs.NewJournal(&off)
	eng2 := Engine{Workers: 1, Journal: j2}
	jobs2 := Matrix([]TraceSource{s.Source(20_000)}, []PredictorSpec{spec},
		Options{Warmup: 2_000})
	if _, err := eng2.Run(context.Background(), jobs2); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(off.String(), `"event":"provenance"`) {
		t.Fatal("provenance event emitted with Explain off")
	}
}

func TestStatsMergePerPC(t *testing.T) {
	run := func(recs trace.Slice) Stats {
		st, err := Run(&StaticPredictor{Direction: true}, recs.Stream(), Options{PerPC: true})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// Stats holds its per-PC attribution in a map, so shards are built
	// fresh per use rather than copied.
	// Shard 1: 0xA misses twice, 0xB hits once.
	// Shard 2: 0xA misses once, 0xC misses three times.
	s1 := func() Stats {
		return run(trace.Slice{
			{PC: 0xA, Taken: false, Instret: 5},
			{PC: 0xB, Taken: true, Instret: 5},
			{PC: 0xA, Taken: false, Instret: 5},
		})
	}
	s2 := func() Stats {
		return run(trace.Slice{
			{PC: 0xA, Taken: false, Instret: 5},
			{PC: 0xC, Taken: false, Instret: 5},
			{PC: 0xC, Taken: false, Instret: 5},
			{PC: 0xC, Taken: false, Instret: 5},
		})
	}

	t.Run("overlapping-and-disjoint-sites-add", func(t *testing.T) {
		merged := s1()
		merged.Merge(s2())
		top := merged.TopOffenders(10)
		if len(top) != 3 {
			t.Fatalf("offenders = %d, want 3", len(top))
		}
		// Descending mispredicts, PC-ascending on ties: A(2+1), C(3), B(0).
		if top[0].PC != 0xA || top[0].Mispredicts != 3 || top[0].Count != 3 {
			t.Fatalf("top[0] = %+v, want 0xA 3/3 (overlap summed)", top[0])
		}
		if top[1].PC != 0xC || top[1].Mispredicts != 3 || top[1].Count != 3 {
			t.Fatalf("top[1] = %+v, want 0xC 3/3", top[1])
		}
		if top[2].PC != 0xB || top[2].Mispredicts != 0 || top[2].Count != 1 {
			t.Fatalf("top[2] = %+v, want 0xB 0/1", top[2])
		}
	})

	t.Run("tie-ordering-stable", func(t *testing.T) {
		// 0xA and 0xC end up tied at 3 mispredicts each; repeated merges
		// must order them identically (PC ascending).
		for i := 0; i < 5; i++ {
			merged := s1()
			merged.Merge(s2())
			top := merged.TopOffenders(2)
			if top[0].PC != 0xA || top[1].PC != 0xC {
				t.Fatalf("iteration %d: order = %x,%x, want A then C on equal misses",
					i, top[0].PC, top[1].PC)
			}
		}
	})

	t.Run("into-unattributed-stats", func(t *testing.T) {
		var merged Stats
		merged.Merge(s2())
		top := merged.TopOffenders(10)
		if len(top) != 2 || top[0].PC != 0xC {
			t.Fatalf("merge into empty lost attribution: %+v", top)
		}
	})
}
