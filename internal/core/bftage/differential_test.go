package bftage

import (
	"testing"

	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

// diffTrace synthesizes a deterministic mixed workload for the
// differential tests.
func diffTrace(t *testing.T, n int) trace.Slice {
	t.Helper()
	for _, s := range workload.Traces() {
		if s.Name == "SPEC03" {
			return s.GenerateN(n)
		}
	}
	t.Fatal("SPEC03 workload spec unavailable")
	return nil
}

// TestFillKeysDifferential drives 20k branches through the flagship
// bf-tage-10 configuration and, at every step, computes every table's
// index and tag through the fold pipeline and through the
// buildGHR+FoldWords reference model, requiring bit-identical results.
// This pins the XOR-delta register maintenance across segment
// evictions, boundary crossings, and snapshot-depth histories.
func TestFillKeysDifferential(t *testing.T) {
	tr := diffTrace(t, 20000)
	p := New(Conventional(10))
	n := len(p.tables)
	idx := make([]uint32, n)
	tag := make([]uint32, n)
	idxRef := make([]uint32, n)
	tagRef := make([]uint32, n)
	for i, rec := range tr {
		p.fillKeys(rec.PC, idx, tag)
		p.fillKeysRef(rec.PC, idxRef, tagRef)
		for j := 0; j < n; j++ {
			if idx[j] != idxRef[j] || tag[j] != tagRef[j] {
				t.Fatalf("step %d table %d: pipeline idx/tag %d/%#x, ref %d/%#x",
					i, j, idx[j], tag[j], idxRef[j], tagRef[j])
			}
		}
		p.Predict(rec.PC)
		p.Update(rec.PC, rec.Taken, rec.Target)
	}
}

// TestSteadyStateAllocs drives the predictor past warmup and requires
// Predict+Update to run allocation-free, both with immediate updates and
// with 33 predictions in flight once the checkpoint ring has grown.
func TestSteadyStateAllocs(t *testing.T) {
	tr := diffTrace(t, 40000)
	for _, delay := range []int{0, 33} {
		p := New(Conventional(10))
		i := 0
		step := func() {
			rec := tr[i%len(tr)]
			p.Predict(rec.PC)
			if i >= delay {
				old := tr[(i-delay)%len(tr)]
				p.Update(old.PC, old.Taken, old.Target)
			}
			i++
		}
		for i < 20000 {
			step()
		}
		if a := testing.AllocsPerRun(2000, step); a > 0 {
			t.Errorf("delay %d: Predict+Update allocates %.1f per branch in steady state", delay, a)
		}
	}
}
