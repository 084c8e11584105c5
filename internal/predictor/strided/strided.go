// Package strided implements a strided-sampling hashed perceptron in the
// spirit of Jiménez's CBP-4 entry (the paper's reference [26]): instead
// of correlating with every one of the most recent N branches, the
// predictor samples the global history at growing strides, expanding the
// effective reach of a fixed number of weight terms. It is the
// *competing* answer to the problem the Bias-Free predictor solves —
// deep reach on a budget — and therefore the most interesting
// head-to-head baseline for BF-Neural on long-correlation workloads:
// sampling reaches deep but only at fixed offsets, while bias-free
// filtering adapts the reach to where the non-biased branches actually
// are.
//
// The predictor is the perceptron package's neural engine indexed by
// the sampled offsets.
package strided

import (
	"bfbp/internal/predictor/perceptron"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

// Config parameterises the strided perceptron.
type Config struct {
	// Offsets are the sampled history depths, strictly increasing from
	// at least 1; if nil, DefaultOffsets() is used.
	Offsets []int
	// TableRows is the power-of-two row count per term.
	TableRows int
	// BiasEntries is the power-of-two bias table size.
	BiasEntries int
}

// DefaultOffsets samples densely near the top of the history and at
// geometric strides out to 1024 branches: 48 terms reaching 16x deeper
// than a dense 48-branch history.
func DefaultOffsets() []int {
	var out []int
	for d := 1; d <= 16; d++ {
		out = append(out, d)
	}
	for d := 18; d <= 64; d += 4 {
		out = append(out, d)
	}
	for d := 80; d <= 1024; d += d / 4 {
		out = append(out, d)
	}
	if out[len(out)-1] < 1024 {
		out = append(out, 1024)
	}
	return out
}

// Default64KB is a ~64KB configuration.
func Default64KB() Config {
	return Config{
		Offsets:     DefaultOffsets(),
		TableRows:   1 << 10,
		BiasEntries: 1 << 12,
	}
}

// Predictor is the strided perceptron: the neural engine with every
// capability but Explain. Explain places contributions by history
// position, and a sampled term's index is not one.
type Predictor struct {
	sim.Predictor
	sim.StorageAccounter
	sim.StateProbe
	sim.Snapshotter
	reach int
}

// New returns a strided perceptron.
func New(cfg Config) *Predictor {
	if cfg.Offsets == nil {
		cfg.Offsets = DefaultOffsets()
	}
	if len(cfg.Offsets) == 0 {
		panic("strided: need at least one offset")
	}
	for i, off := range cfg.Offsets {
		if off < 1 || i > 0 && off <= cfg.Offsets[i-1] {
			panic("strided: offsets must be strictly increasing from at least 1")
		}
	}
	if cfg.TableRows <= 0 || cfg.TableRows&(cfg.TableRows-1) != 0 {
		panic("strided: TableRows must be a positive power of two")
	}
	if cfg.BiasEntries <= 0 || cfg.BiasEntries&(cfg.BiasEntries-1) != 0 {
		panic("strided: BiasEntries must be a positive power of two")
	}
	n, reach := len(cfg.Offsets), cfg.Offsets[len(cfg.Offsets)-1]
	u := perceptron.NewUnfiltered(reach, nil)
	e := perceptron.NewEngine(perceptron.Spec{
		Name:       "strided-perceptron",
		ConfigHash: configHash(cfg),
		Tables: []perceptron.Table{
			{Name: "weights", Label: "sampled weights (8-bit)", Entries: n * cfg.TableRows, HistLen: reach},
			{Name: "bias", Label: "bias weights (8-bit)", Entries: cfg.BiasEntries, Bias: true},
		},
		Tuning: perceptron.Tuning{
			WeightBits:   8,
			Theta0:       int32(2.14*float64(n) + 20.58),
			ThetaPeriod:  32,
			ThetaFloor:   1,
			TrainAtTheta: true,
		},
		MaxIndices:     n,
		Source:         &source{Unfiltered: u, offsets: cfg.Offsets, rows: int32(cfg.TableRows)},
		HistoryStorage: []sim.Component{{Name: "history ring", Bits: u.Ring().Cap() * 15}},
	})
	return &Predictor{e, e, e, e, reach}
}

// configHash hashes cfg and, in their places in the snapshot format's
// hash, the empty name override that configs once carried and the
// always-on adaptive threshold.
func configHash(cfg Config) uint64 {
	h := state.NewHash("strided")
	h.String("")
	h.Ints(cfg.Offsets)
	h.Int(cfg.TableRows)
	h.Int(cfg.BiasEntries)
	h.Bool(true)
	return h.Sum()
}

// Reach returns the deepest sampled offset.
func (p *Predictor) Reach() int { return p.reach }

// source indexes term i's table, of rows weights, by the branch at
// depth offsets[i].
type source struct {
	*perceptron.Unfiltered
	offsets []int
	rows    int32
}

// Fill writes the index of every populated sampled offset; the
// unpopulated ones, until the history is that deep, are the deepest.
func (s *source) Fill(pc uint64, idx []int32, dirs []bool) (n, recent int) {
	win := s.Ring().Window(s.offsets[len(s.offsets)-1])
	pch := rng.Hash64(pc >> 2)
	mask := uint64(s.rows - 1)
	for i, off := range s.offsets {
		if off > win.N {
			break
		}
		row := rng.Hash64(pch^uint64(win.PC(off-1))*0x9e3779b97f4a7c15^uint64(i)<<40) & mask
		idx[i] = int32(i)*s.rows + int32(row)
		dirs[i] = win.Taken(off - 1)
		n++
	}
	return n, n
}
