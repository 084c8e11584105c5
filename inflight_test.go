package bfbp_test

import (
	"bytes"
	"fmt"
	"testing"

	"bfbp"
)

// TestInFlightCheckpoints pins the bias-free cores' misprediction counts
// with 0, 1 and 33 updates in flight. Delay 33 keeps 34 checkpoints
// live at once, so each core's checkpoint ring grows past its initial
// size and wraps many times over the run; the IUM variant also reads
// the in-flight entries at every prediction. The counters were recorded
// before the in-flight queue became a ring and must not move.
func TestInFlightCheckpoints(t *testing.T) {
	tr := genTrace(t, "SPEC03", 20000)
	if len(tr) != 21904 {
		t.Fatalf("SPEC03 generated %d branches, want 21904", len(tr))
	}
	delays := []int{0, 1, 33}
	cases := []struct {
		name string
		want []uint64 // mispredicts per delay
	}{
		{"bf-tage-10", []uint64{707, 771, 1117}},
		{"bf-isl-tage-10", []uint64{659, 712, 1031}},
		{"bf-neural", []uint64{387, 397, 836}},
		{"bf-gehl", []uint64{479, 508, 931}},
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
