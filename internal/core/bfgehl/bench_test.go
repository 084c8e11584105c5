package bfgehl

import (
	"testing"

	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

var benchTrace trace.Slice

func getBenchTrace(b *testing.B) trace.Slice {
	b.Helper()
	if benchTrace == nil {
		for _, s := range workload.Traces() {
			if s.Name == "SPEC03" {
				benchTrace = s.GenerateN(100000)
				break
			}
		}
	}
	if benchTrace == nil {
		b.Skip("SPEC03 workload spec unavailable")
	}
	return benchTrace
}

// BenchmarkPredictUpdate measures the Predict+Update path.
func BenchmarkPredictUpdate(b *testing.B) {
	tr := getBenchTrace(b)
	p := New(Default64KB())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := tr[i%len(tr)]
		p.Predict(rec.PC)
		p.Update(rec.PC, rec.Taken, rec.Target)
	}
}

// BenchmarkComputeRef measures the buildGHR+FoldWords reference model,
// for comparison against the key-map folds inside
// BenchmarkPredictUpdate profiles.
func BenchmarkComputeRef(b *testing.B) {
	tr := getBenchTrace(b)
	cfg := Default64KB()
	p, h := build(cfg)
	for _, rec := range tr[:20000] {
		p.Predict(rec.PC)
		p.Update(rec.PC, rec.Taken, rec.Target)
	}
	folds := make([]uint64, cfg.Tables-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.computeRef(cfg, folds)
	}
}
