package sim

import (
	"testing"

	"bfbp/internal/trace"
)

// lruPredictor is a small stateful test double exercising the delayed-
// update path without allocating.
type lruPredictor struct{ last uint64 }

func (l *lruPredictor) Name() string           { return "lru-test" }
func (l *lruPredictor) Predict(pc uint64) bool { return pc == l.last }
func (l *lruPredictor) Update(pc uint64, taken bool, target uint64) {
	if taken {
		l.last = pc
	}
}

func allocTrace(n int) trace.Slice {
	out := make(trace.Slice, n)
	for i := range out {
		out[i] = trace.Record{
			PC:      uint64(0x4000 + 4*(i%257)),
			Taken:   i%3 == 0,
			Instret: uint8(1 + i%7),
		}
	}
	return out
}

// The simulation loop must not allocate per branch: with the batch
// buffer and delay ring as the only per-run setup, a 50k-branch run
// should cost a small constant number of allocations regardless of
// length. The bound of 50 allocations (0.001 per branch) leaves room
// for setup while failing loudly if per-branch or per-batch garbage
// returns to the hot path.
func TestRunContextSteadyStateAllocs(t *testing.T) {
	const branches = 50_000
	recs := allocTrace(branches)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"plain", Options{}},
		{"warmup", Options{Warmup: 10_000}},
		{"delay", Options{UpdateDelay: 64}},
	} {
		p := &lruPredictor{}
		avg := testing.AllocsPerRun(5, func() {
			if _, err := Run(p, recs.Stream(), tc.opt); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 50 {
			t.Errorf("%s: RunContext allocated %.0f times per %d-branch run, want <= 50",
				tc.name, avg, branches)
		}
	}
}
