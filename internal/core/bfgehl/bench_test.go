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
// for comparison against the pipeline compute inside
// BenchmarkPredictUpdate profiles.
func BenchmarkComputeRef(b *testing.B) {
	tr := getBenchTrace(b)
	p := New(Default64KB())
	for _, rec := range tr[:20000] {
		p.Predict(rec.PC)
		p.Update(rec.PC, rec.Taken, rec.Target)
	}
	idxs := make([]uint32, p.cfg.Tables)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += p.computeRef(tr[i%20000].PC, idxs)
	}
	_ = sink
}
