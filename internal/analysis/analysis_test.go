package analysis

import (
	"strings"
	"testing"

	"bfbp/internal/predictor/bimodal"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

func TestClassify(t *testing.T) {
	tr := trace.Slice{
		{PC: 1, Taken: true, Instret: 5},
		{PC: 1, Taken: true, Instret: 5},
		{PC: 2, Taken: true, Instret: 5},
		{PC: 2, Taken: false, Instret: 5},
		{PC: 2, Taken: true, Instret: 5},
		{PC: 2, Taken: false, Instret: 5},
	}
	classes, err := Classify(tr.Stream())
	if err != nil {
		t.Fatal(err)
	}
	c1 := classes[1]
	if !c1.Biased || c1.TakenRate != 1 || c1.FlipRate != 0 {
		t.Fatalf("pc1 class = %+v, want biased always-taken", c1)
	}
	c2 := classes[2]
	if c2.Biased {
		t.Fatal("pc2 should be non-biased")
	}
	if c2.TakenRate != 0.5 {
		t.Fatalf("pc2 taken rate = %v, want 0.5", c2.TakenRate)
	}
	if c2.FlipRate != 1 {
		t.Fatalf("pc2 flip rate = %v, want 1 (alternating)", c2.FlipRate)
	}
}

func TestPopulation(t *testing.T) {
	tr := trace.Slice{
		{PC: 1, Taken: true, Instret: 5},
		{PC: 1, Taken: true, Instret: 5},
		{PC: 2, Taken: true, Instret: 5},
		{PC: 2, Taken: false, Instret: 5},
	}
	classes, _ := Classify(tr.Stream())
	rep := Population(classes)
	if rep.Sites != 2 || rep.BiasedSites != 1 {
		t.Fatalf("population = %+v", rep)
	}
	if rep.DynamicBranches != 4 || rep.BiasedDynamic != 2 {
		t.Fatalf("dynamic counts = %+v", rep)
	}
	if rep.TakenRate != 0.75 {
		t.Fatalf("taken rate = %v, want 0.75", rep.TakenRate)
	}
}

func TestAttributeKernels(t *testing.T) {
	spec, _ := workload.ByName("FP4")
	reports, st, err := AttributeKernels(spec, 30_000, bimodal.New(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	if st.Branches == 0 {
		t.Fatal("no branches simulated")
	}
	if len(reports) == 0 {
		t.Fatal("no kernel reports")
	}
	var total uint64
	seen := map[string]bool{}
	for _, r := range reports {
		if seen[r.Kind] {
			t.Fatalf("duplicate kind %s", r.Kind)
		}
		seen[r.Kind] = true
		total += r.Branches
		if r.Rate() < 0 || r.Rate() > 1 {
			t.Fatalf("rate out of range: %+v", r)
		}
	}
	// Attribution covers everything the stats saw after warmup.
	if total == 0 {
		t.Fatal("attribution covered no branches")
	}
}

func TestCompareRender(t *testing.T) {
	spec, _ := workload.ByName("MM1")
	cmp, err := Compare(spec, 20_000, []sim.Predictor{
		bimodal.New(1 << 12),
		bimodal.New(1 << 6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Predictors) != 2 || len(cmp.Kinds) == 0 {
		t.Fatalf("comparison shape: %+v", cmp)
	}
	out := cmp.Render()
	if !strings.Contains(out, "MPKI") || !strings.Contains(out, "bimodal") {
		t.Fatalf("render missing parts:\n%s", out)
	}
}

func TestTopOffendersReport(t *testing.T) {
	tr := trace.Slice{}
	for i := 0; i < 100; i++ {
		tr = append(tr, trace.Record{PC: 0x10, Taken: i%2 == 0, Instret: 5})
	}
	classes, _ := Classify(tr.Stream())
	st, err := sim.Run(&sim.StaticPredictor{Direction: true}, tr.Stream(), sim.Options{PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	out := TopOffendersReport(st, classes, 5)
	if !strings.Contains(out, "0x10") {
		t.Fatalf("report missing offender:\n%s", out)
	}
}
