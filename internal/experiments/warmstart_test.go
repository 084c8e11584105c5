package experiments

import (
	"testing"

	"bfbp/internal/predictor/gshare"
	"bfbp/internal/sim"
)

func gsharePred() sim.PredictorSpec {
	return sim.PredictorSpec{Name: "gshare", New: func() sim.Predictor {
		return gshare.New(1<<14, 14)
	}}
}

func TestWarmStart(t *testing.T) {
	cfg := Config{LongBranches: 30000, ShortBranches: 30000}
	tab, err := WarmStart(cfg, gsharePred(), "SPEC03", 5)
	if err != nil {
		t.Fatal(err)
	}
	overall, ok := tab.RowByLabel("overall")
	if !ok {
		t.Fatal("no overall row")
	}
	cold, warm := overall.Vals[0], overall.Vals[1]
	if warm >= cold {
		t.Errorf("warm start did not help: cold %.3f, warm %.3f MPKI", cold, warm)
	}
	if len(tab.Rows) < 3 {
		t.Errorf("expected windowed rows, got %d", len(tab.Rows))
	}
}

func TestWarmStartUnknownTrace(t *testing.T) {
	if _, err := WarmStart(DefaultConfig(), gsharePred(), "NOPE", 5); err == nil {
		t.Fatal("unknown trace did not error")
	}
}

func TestWarmStartRejectsBadWindows(t *testing.T) {
	for _, w := range []int{0, -3} {
		if _, err := WarmStart(DefaultConfig(), gsharePred(), "SPEC03", w); err == nil {
			t.Fatalf("windows %d did not error", w)
		}
	}
}
