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
// the gathered fast-path Fill and the per-entry-accessor reference
// model side by side, requiring identical index lists and directions.
// This pins the dense fill (past 64 positions in the 72-deep
// filter-weights ablation, and across warm-up, where the unpopulated
// positions are left out), the bulk PC and recency-stack gathers, and
// the tabulated distance quantizer to the reference formulation across
// stack churn and deep history, with and without the PC in the hash.
func TestComputeDifferential(t *testing.T) {
	tr := diffTrace(t, 20000)
	for _, cfg := range []Config{Default64KB(), Ablation(ModeBiasFreeGHR), Ablation(ModeFilterWeights), AheadPipelined()} {
		p, s := build(cfg, nil)
		n := cfg.RecentUnfiltered + cfg.RSDepth
		idx, dirs := make([]int32, n), make([]bool, n)
		for i, rec := range tr {
			got, recent := s.Fill(rec.PC, idx, dirs)
			refIdx, refDirs, refRecent := s.computeRef(rec.PC)
			if recent != refRecent {
				t.Fatalf("%s step %d: %d Wm positions, ref %d", p.Name(), i, recent, refRecent)
			}
			if !equalI32(idx[:got], refIdx) || !equalBool(dirs[:got], refDirs) {
				t.Fatalf("%s step %d: indices/directions diverge", p.Name(), i)
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
