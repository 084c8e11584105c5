// Package perceptron is the one neural engine (engine.go) and the
// hashed, piecewise-linear-style perceptron built on it (Jiménez & Lin
// 2001; Jiménez 2005). The perceptron is the "conventional perceptron"
// baseline of the paper's Fig. 9 — a 72-branch unfiltered history within
// a 64KB budget — and its folded-history indexing switch (fhist, §IV-A)
// is one of the ablation steps of that figure. The strided perceptron
// and BF-Neural are the same engine under other histories.
//
// For every position i in the global history, the perceptron selects a
// weight row by hashing the current PC with the address of the i-th most
// recent branch (and, when enabled, the folded outcome history of length
// i), then accumulates weight * outcome(i). The sign of the sum is the
// prediction; training is standard perceptron learning with an adaptive
// threshold (O-GEHL style).
package perceptron

import (
	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

// Config parameterises the predictor.
type Config struct {
	// HistoryLength is the number of recent branches correlated with
	// (the paper's baseline uses 72).
	HistoryLength int
	// TableRows is the power-of-two row count of the correlating weight
	// table; each row holds HistoryLength int8 weights.
	TableRows int
	// BiasEntries is the power-of-two size of the bias weight table.
	BiasEntries int
	// FoldedHistory enables the fhist optimization of §IV-A: the hash
	// that selects a weight row additionally includes the folded global
	// outcome history between the correlated branch and the current one.
	FoldedHistory bool
}

// Default64KB is the Fig. 9 leftmost-bar configuration: a conventional
// perceptron with history length 72 sized for a 64KB budget, without
// folded-history indexing.
func Default64KB() Config {
	return Config{
		HistoryLength: 72,
		TableRows:     1 << 9, // 512 rows x 72 8-bit weights = 36KB
		BiasEntries:   1 << 13,
	}
}

// New returns the engine over the dense history positions 1..h.
func New(cfg Config) *Predictor {
	if cfg.HistoryLength < 1 {
		panic("perceptron: HistoryLength must be >= 1")
	}
	if cfg.TableRows <= 0 || cfg.TableRows&(cfg.TableRows-1) != 0 {
		panic("perceptron: TableRows must be a positive power of two")
	}
	if cfg.BiasEntries <= 0 || cfg.BiasEntries&(cfg.BiasEntries-1) != 0 {
		panic("perceptron: BiasEntries must be a positive power of two")
	}
	h := cfg.HistoryLength
	var lengths []int
	if cfg.FoldedHistory {
		// One fold per quantized length; per-position folds are
		// quantized to these lengths, which a hardware design would do
		// with a fixed bank of fold registers.
		lengths = foldLengths(h)
	}
	u := NewUnfiltered(h, lengths)
	storage := []sim.Component{{Name: "global history ring", Bits: u.Ring().Cap() * 15}}
	if lengths != nil {
		storage = append(storage, sim.Component{Name: "folded history registers", Bits: len(lengths) * FoldWidth})
	}
	name := "perceptron"
	if cfg.FoldedHistory {
		name = "perceptron+fhist"
	}
	return NewEngine(Spec{
		Name:       name,
		ConfigHash: configHash(cfg),
		Tables: []Table{
			{Name: "weights", Label: "correlating weights (8-bit)", Entries: cfg.TableRows * h, HistLen: h},
			{Name: "bias", Label: "bias weights (8-bit)", Entries: cfg.BiasEntries, Bias: true},
		},
		Tuning: Tuning{
			WeightBits:   8,
			Theta0:       int32(2.14*float64(h) + 20.58),
			ThetaPeriod:  64,
			ThetaFloor:   1,
			TrainAtTheta: true,
		},
		MaxIndices:     h,
		Source:         &source{Unfiltered: u, dense: NewDense(u, h, cfg.TableRows)},
		HistoryStorage: storage,
	})
}

// configHash hashes cfg and, in their places in the snapshot format's
// hash, the empty name override that configs once carried, the fixed
// fold width and the always-on adaptive threshold.
func configHash(cfg Config) uint64 {
	h := state.NewHash("perceptron")
	h.String("")
	h.Int(cfg.HistoryLength)
	h.Int(cfg.TableRows)
	h.Int(cfg.BiasEntries)
	h.Bool(cfg.FoldedHistory)
	h.Int(FoldWidth)
	h.Bool(true)
	return h.Sum()
}

// foldLengths returns a dense-then-geometric set of fold lengths covering
// [1, h].
func foldLengths(h int) []int {
	var out []int
	for l := 1; l <= h; {
		out = append(out, l)
		switch {
		case l < 8:
			l++
		case l < 32:
			l += 4
		default:
			l += l / 4
		}
	}
	if out[len(out)-1] < h {
		out = append(out, h)
	}
	return out
}

// source indexes the perceptron's weight table by the dense history
// positions 1..h.
type source struct {
	*Unfiltered
	dense Dense
}

func (s *source) Fill(pc uint64, idx []int32, dirs []bool) (n, recent int) {
	n = s.dense.Fill(rng.Hash64(pc>>2), idx, dirs)
	return n, n
}
