package bfneural

import (
	"testing"

	"bfbp/internal/rng"
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

// TestComputeDifferential drives 20k branches and, at every step, runs
// the gathered fast-path compute and the per-entry-accessor reference
// model side by side, requiring identical accumulators and index
// lists. This pins the packed recent-outcome read, the bulk PC and
// recency-stack gathers, and the bits.Len64 distance quantizer to the
// reference formulation across warmup, stack churn, and deep history.
func TestComputeDifferential(t *testing.T) {
	tr := diffTrace(t, 20000)
	for _, cfg := range []Config{Default64KB(), Ablation(ModeBiasFreeGHR)} {
		p := New(cfg)
		a, b := p.makeCheckpoint(), p.makeCheckpoint()
		for i, rec := range tr {
			p.compute(rec.PC, &a)
			p.computeRef(rec.PC, &b)
			if a.accum != b.accum {
				t.Fatalf("%s step %d: accum fast %d, ref %d", p.Name(), i, a.accum, b.accum)
			}
			if !equalI32(a.wmRows, b.wmRows) || !equalBool(a.wmDirs, b.wmDirs) {
				t.Fatalf("%s step %d: Wm rows/dirs diverge", p.Name(), i)
			}
			if !equalI32(a.wrsIdxs, b.wrsIdxs) || !equalBool(a.wrsDirs, b.wrsDirs) {
				t.Fatalf("%s step %d: Wrs idxs/dirs diverge", p.Name(), i)
			}
			p.Predict(rec.PC)
			p.Update(rec.PC, rec.Taken, rec.Target)
		}
	}
}

// TestQuantDistDifferential pins the bits.Len64 quantizer to the loop
// reference over the full pos_hist range.
func TestQuantDistDifferential(t *testing.T) {
	for d := uint64(0); d < 1<<14; d++ {
		if quantDist(d) != quantDistRef(d) {
			t.Fatalf("quantDist(%d) = %d, ref %d", d, quantDist(d), quantDistRef(d))
		}
	}
	r := rng.New(0x9D)
	for i := 0; i < 10000; i++ {
		d := r.Uint64() >> uint(r.Intn(60))
		if quantDist(d) != quantDistRef(d) {
			t.Fatalf("quantDist(%#x) = %d, ref %d", d, quantDist(d), quantDistRef(d))
		}
	}
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalBool(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
