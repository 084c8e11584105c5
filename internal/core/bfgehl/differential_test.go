package bfgehl

import (
	"bytes"
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

// TestComputeDifferential drives 20k branches and, at every step, runs
// the fold-pipeline compute and the buildGHR+FoldWords reference model
// side by side, requiring identical sums and table indices.
// This pins the pipeline's XOR-delta register maintenance (including
// segment evictions, boundary crossings, and the generic multi-word
// fold path for the deepest tables) to the scalar re-fold.
func TestComputeDifferential(t *testing.T) {
	tr := diffTrace(t, 20000)
	p := New(Default64KB())
	idxs := make([]uint32, p.cfg.Tables)
	idxsRef := make([]uint32, p.cfg.Tables)
	for i, rec := range tr {
		sum := p.compute(rec.PC, idxs)
		sumRef := p.computeRef(rec.PC, idxsRef)
		if sum != sumRef {
			t.Fatalf("step %d: sum fast %d, ref %d", i, sum, sumRef)
		}
		for j := range idxs {
			if idxs[j] != idxsRef[j] {
				t.Fatalf("step %d table %d: idx fast %d, ref %d", i, j, idxs[j], idxsRef[j])
			}
		}
		p.Predict(rec.PC)
		p.Update(rec.PC, rec.Taken, rec.Target)
	}
}

// TestResumePipelineRebuild snapshots mid-run, restores into a fresh
// predictor, and requires the rebuilt fold pipeline to agree with the
// reference model (and with the donor) over continued execution.
func TestResumePipelineRebuild(t *testing.T) {
	tr := diffTrace(t, 12000)
	p := New(Default64KB())
	for _, rec := range tr[:8000] {
		p.Predict(rec.PC)
		p.Update(rec.PC, rec.Taken, rec.Target)
	}
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	q := New(Default64KB())
	if err := q.LoadState(&buf); err != nil {
		t.Fatalf("load: %v", err)
	}
	idxs := make([]uint32, q.cfg.Tables)
	for i, rec := range tr[8000:] {
		sum := q.compute(rec.PC, idxs)
		if ref := q.computeRef(rec.PC, idxs); sum != ref {
			t.Fatalf("step %d after resume: sum fast %d, ref %d", i, sum, ref)
		}
		pw, qw := p.Predict(rec.PC), q.Predict(rec.PC)
		if pw != qw {
			t.Fatalf("step %d after resume: donor %v, restored %v", i, pw, qw)
		}
		p.Update(rec.PC, rec.Taken, rec.Target)
		q.Update(rec.PC, rec.Taken, rec.Target)
	}
}
