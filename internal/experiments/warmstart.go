package experiments

import (
	"bytes"
	"fmt"

	"bfbp/internal/sim"
	"bfbp/internal/workload"
)

// The warm-start studies ride on bfbp.state.v1 snapshots: a predictor is
// trained, its state serialised, and restored into fresh instances to
// measure what long-lived state is worth. Lin & Tarsa ("Branch
// Prediction Is Not a Solved Problem") argue residual MPKI is dominated
// by branches that never get enough history — these experiments quantify
// how much of that a persisted predictor image recovers.

// snapshotOf serialises p and returns the raw bfbp.state.v1 image.
func snapshotOf(p sim.Predictor) ([]byte, error) {
	snap := sim.Capabilities(p).Snapshot
	if snap == nil {
		return nil, fmt.Errorf("experiments: %s does not support snapshots", p.Name())
	}
	var buf bytes.Buffer
	if err := snap.SaveState(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// restore loads a bfbp.state.v1 image into p.
func restore(p sim.Predictor, img []byte) error {
	snap := sim.Capabilities(p).Snapshot
	if snap == nil {
		return fmt.Errorf("experiments: %s does not support snapshots", p.Name())
	}
	return snap.LoadState(bytes.NewReader(img))
}

// WarmStart contrasts cold-start and warm-start behaviour of one
// predictor on one trace. A training pass over the full trace builds
// predictor state and captures it as a bfbp.state.v1 snapshot; then a
// cold (fresh) and a warm (snapshot-restored) instance each replay the
// trace with windowed stats and no warmup exclusion. Rows are the MPKI
// of successive windows (windows count of them), so the cold column
// shows the ramp-up transient the warm column skips; an "overall" row
// aggregates the whole run.
func WarmStart(cfg Config, pred sim.PredictorSpec, traceName string, windows int) (Table, error) {
	s, ok := workload.ByName(traceName)
	if !ok {
		return Table{}, fmt.Errorf("experiments: unknown trace %q", traceName)
	}
	if windows < 1 {
		return Table{}, fmt.Errorf("experiments: warm-start needs at least 1 window, got %d", windows)
	}
	n := cfg.branchesFor(s)
	src := s.Source(n)

	cfg.logf("warmstart: training %s on %s (%d branches)\n", pred.Name, traceName, n)
	trained := pred.New()
	if _, err := sim.Run(trained, src.Open(), sim.Options{}); err != nil {
		return Table{}, err
	}
	img, err := snapshotOf(trained)
	if err != nil {
		return Table{}, err
	}

	opt := sim.Options{Window: uint64(n / windows)}
	cold, err := sim.Run(pred.New(), src.Open(), opt)
	if err != nil {
		return Table{}, err
	}
	warmed := pred.New()
	if err := restore(warmed, img); err != nil {
		return Table{}, err
	}
	warm, err := sim.Run(warmed, src.Open(), opt)
	if err != nil {
		return Table{}, err
	}

	t := Table{
		Title: fmt.Sprintf("Warm-start study: %s on %s (%d branches, %d-byte snapshot)",
			pred.Name, traceName, n, len(img)),
		Columns: []string{"cold-MPKI", "warm-MPKI"},
	}
	rows := len(cold.Windows)
	if len(warm.Windows) < rows {
		rows = len(warm.Windows)
	}
	var at uint64
	for i := 0; i < rows; i++ {
		at += cold.Windows[i].Branches
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("@%d", at),
			Vals:  []float64{cold.Windows[i].MPKI(), warm.Windows[i].MPKI()},
		})
	}
	t.Rows = append(t.Rows, Row{Label: "overall", Vals: []float64{cold.MPKI(), warm.MPKI()}})
	return t, nil
}
