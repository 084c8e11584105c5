package bfneural

import "testing"

// TestSteadyStateAllocs drives the predictor past warmup and requires
// Predict+Update to run allocation-free, both with immediate updates and
// with 33 predictions in flight once the checkpoint ring has grown.
func TestSteadyStateAllocs(t *testing.T) {
	tr := diffTrace(t, 40000)
	for _, delay := range []int{0, 33} {
		p := New(Default64KB())
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
