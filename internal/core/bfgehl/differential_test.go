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

// TestComputeDifferential drives 20k branches and, at every step, reads
// every table's fold through the key map and through the
// buildGHR+FoldWords reference model side by side, requiring identical
// folds. This pins the key words' XOR-delta maintenance (including
// segment evictions, boundary crossings, and the deepest tables'
// multi-word folds) to the scalar re-fold.
func TestComputeDifferential(t *testing.T) {
	tr := diffTrace(t, 20000)
	cfg := Default64KB()
	p, h := build(cfg)
	folds := make([]uint64, cfg.Tables-1)
	foldsRef := make([]uint64, cfg.Tables-1)
	for i, rec := range tr {
		h.Folds(folds)
		h.computeRef(cfg, foldsRef)
		for j := range folds {
			if folds[j] != foldsRef[j] {
				t.Fatalf("step %d table %d: fold fast %#x, ref %#x", i, j+1, folds[j], foldsRef[j])
			}
		}
		p.Predict(rec.PC)
		p.Update(rec.PC, rec.Taken, rec.Target)
	}
}

// TestResumeKeyMapRebuild snapshots mid-run, restores into a fresh
// predictor, and requires the rebuilt key map to agree with the
// reference model (and the restored predictor with the donor) over
// continued execution.
func TestResumeKeyMapRebuild(t *testing.T) {
	tr := diffTrace(t, 12000)
	cfg := Default64KB()
	p := New(cfg)
	for _, rec := range tr[:8000] {
		p.Predict(rec.PC)
		p.Update(rec.PC, rec.Taken, rec.Target)
	}
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	q, h := build(cfg)
	if err := q.LoadState(&buf); err != nil {
		t.Fatalf("load: %v", err)
	}
	folds := make([]uint64, cfg.Tables-1)
	foldsRef := make([]uint64, cfg.Tables-1)
	for i, rec := range tr[8000:] {
		h.Folds(folds)
		h.computeRef(cfg, foldsRef)
		for j := range folds {
			if folds[j] != foldsRef[j] {
				t.Fatalf("step %d after resume, table %d: fold fast %#x, ref %#x", i, j+1, folds[j], foldsRef[j])
			}
		}
		pw, qw := p.Predict(rec.PC), q.Predict(rec.PC)
		if pw != qw {
			t.Fatalf("step %d after resume: donor %v, restored %v", i, pw, qw)
		}
		p.Update(rec.PC, rec.Taken, rec.Target)
		q.Update(rec.PC, rec.Taken, rec.Target)
	}
}
