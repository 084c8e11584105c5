package bftage

import (
	"testing"

	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

// benchTrace generates a deterministic SPEC-like workload once per
// process for the throughput benchmarks.
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

// BenchmarkPredictUpdate measures the Predict+Update path — the
// per-branch cost the simulator loop pays — for bf-tage-10, the
// performance ledger's subject, and bf-isl-tage-10 with its SC and IUM.
func BenchmarkPredictUpdate(b *testing.B) {
	tr := getBenchTrace(b)
	for _, cfg := range []Config{ConventionalBare(10), Conventional(10)} {
		b.Run(cfg.Name, func(b *testing.B) {
			p := New(cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := tr[i%len(tr)]
				p.Predict(rec.PC)
				p.Update(rec.PC, rec.Taken, rec.Target)
			}
		})
	}
}
