package bfbp_test

import (
	"bytes"
	"fmt"
	"testing"

	"bfbp"
)

// TestInFlightCheckpoints pins the misprediction counts of every
// checkpointing predictor with 0, 1 and 33 updates in flight. Delay 33
// keeps 34 checkpoints live at once, so each predictor's checkpoint ring
// grows past its initial size and wraps many times over the run; the
// IUM variants also read the in-flight entries at every prediction. The
// skip-predict subtest calls Update for branches that were never
// predicted, which drives the fresh-lookup fallback both with an empty
// ring and with a mismatched checkpoint at its head. The counters were
// recorded before each family's in-flight queue became a ring and must
// not move. The 1-, 4- and 7-table TAGE rows were recorded before the
// conventional and bias-free TAGE cores became one engine, so every
// table count of both histories stays pinned. The bf-neural-32k,
// -fweights, -ghist and -ahead rows were recorded before the perceptron,
// strided and BF-Neural predictors became one neural engine.
func TestInFlightCheckpoints(t *testing.T) {
	tr := genTrace(t, "SPEC03", 20000)
	if len(tr) != 21904 {
		t.Fatalf("SPEC03 generated %d branches, want 21904", len(tr))
	}
	delays := []int{0, 1, 33}
	cases := []struct {
		name string
		want []uint64 // mispredicts per delay
		skip uint64   // mispredicts with every fifth Predict skipped
	}{
		{"bf-tage-10", []uint64{707, 771, 1117}, 600},
		{"bf-isl-tage-10", []uint64{659, 712, 1031}, 565},
		{"bf-neural", []uint64{387, 397, 836}, 337},
		{"bf-neural-32k", []uint64{382, 407, 846}, 354},
		{"bf-neural-fweights", []uint64{432, 427, 891}, 407},
		{"bf-neural-ghist", []uint64{388, 394, 845}, 344},
		{"bf-neural-ahead", []uint64{392, 420, 895}, 385},
		{"bf-gehl", []uint64{479, 508, 931}, 422},
		{"bf-tage-4", []uint64{701, 753, 1121}, 595},
		{"bf-isl-tage-7", []uint64{629, 688, 1017}, 565},
		{"tage-15", []uint64{550, 583, 1043}, 480},
		{"tage-1", []uint64{421, 483, 981}, 391},
		{"isl-tage-4", []uint64{510, 567, 988}, 474},
		{"isl-tage-15", []uint64{540, 574, 1012}, 476},
		{"oh-snap", []uint64{414, 447, 994}, 378},
		{"perceptron", []uint64{453, 465, 964}, 389},
		{"perceptron-fhist", []uint64{488, 495, 1011}, 453},
		{"o-gehl", []uint64{482, 520, 946}, 428},
		{"strided", []uint64{361, 417, 912}, 351},
	}
	for _, c := range cases {
		info, err := bfbp.PredictorByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range delays {
			t.Run(fmt.Sprintf("%s/delay=%d", c.name, d), func(t *testing.T) {
				st, err := bfbp.Run(info.New(), tr.Stream(), bfbp.Options{UpdateDelay: d})
				if err != nil {
					t.Fatal(err)
				}
				if st.Branches != uint64(len(tr)) || st.Mispredicts != c.want[i] {
					t.Errorf("got %d branches / %d mispredicts, want %d / %d",
						st.Branches, st.Mispredicts, len(tr), c.want[i])
				}
			})
		}
		t.Run(c.name+"/skip-predict", func(t *testing.T) {
			// Updates lag predictions by one branch and every fifth
			// branch is never predicted.
			p := info.New()
			var miss uint64
			for i, rec := range tr {
				if i%5 != 0 && p.Predict(rec.PC) != rec.Taken {
					miss++
				}
				if i > 0 {
					old := tr[i-1]
					p.Update(old.PC, old.Taken, old.Target)
				}
			}
			if miss != c.skip {
				t.Errorf("got %d mispredicts, want %d", miss, c.skip)
			}
		})
		t.Run(c.name+"/snapshot-quiescence", func(t *testing.T) {
			p := info.New()
			snap := bfbp.Capabilities(p).Snapshot
			for _, rec := range tr[:1000] {
				p.Predict(rec.PC)
				p.Update(rec.PC, rec.Taken, rec.Target)
			}
			rec := tr[1000]
			p.Predict(rec.PC)
			var buf bytes.Buffer
			if err := snap.SaveState(&buf); err == nil {
				t.Error("SaveState succeeded with a prediction in flight")
			}
			p.Update(rec.PC, rec.Taken, rec.Target)
			buf.Reset()
			if err := snap.SaveState(&buf); err != nil {
				t.Errorf("SaveState after the update committed: %v", err)
			}
		})
	}
}

// TestSteadyStateAllocs drives every registry predictor past warm-up
// and requires Predict+Update to run allocation-free, both with
// immediate updates and with 33 predictions in flight once each
// predictor's checkpoint ring has grown.
func TestSteadyStateAllocs(t *testing.T) {
	tr := genTrace(t, "SPEC03", 40000)
	for _, info := range bfbp.Predictors() {
		for _, delay := range []int{0, 33} {
			t.Run(fmt.Sprintf("%s/delay=%d", info.Name, delay), func(t *testing.T) {
				p := info.New()
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
				if a := testing.AllocsPerRun(2000, step); a != 0 {
					t.Errorf("Predict+Update allocates %.1f per branch in steady state", a)
				}
			})
		}
	}
}
