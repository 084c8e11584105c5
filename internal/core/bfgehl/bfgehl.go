// Package bfgehl applies the paper's bias-free history to an O-GEHL-style
// predictor — the natural third instantiation after BF-Neural and
// BF-TAGE. The paper argues (§V) that a bias-free global history register
// lets a TAGE reach deep correlations with fewer tables; the same BF-GHR
// can index GEHL's summed weight tables, giving a tagless predictor whose
// geometric history lengths are measured in compressed (bias-free) bits.
//
// This is an extension beyond the paper's evaluated designs, included to
// demonstrate that the BF-GHR is a reusable substrate: the predictor is
// the gehl adder-tree engine indexed by the BF-GHR of package bfghr.
package bfgehl

import (
	"bfbp/internal/bfghr"
	"bfbp/internal/history"
	"bfbp/internal/predictor/gehl"
	"bfbp/internal/state"
)

// Config parameterises BF-GEHL.
type Config struct {
	// Tables is the number of weight tables; table 0 is PC-indexed.
	Tables int
	// LogEntries is log2 of each table's entry count. Tables 1..Tables-1
	// fold BF-GHR lengths geometric from 2 to the BF-GHR width.
	LogEntries int
	// UnfilteredBits, SegBounds, SegSize configure the BF-GHR exactly as
	// in BF-TAGE.
	UnfilteredBits int
	SegBounds      []int
	SegSize        int
	// BSTEntries sizes the Branch Status Table.
	BSTEntries int
	// CounterBits is the weight width.
	CounterBits int
}

// Default64KB is an 8-table ~64KB BF-GEHL over the paper's segmentation.
func Default64KB() Config {
	return Config{
		Tables:         8,
		LogEntries:     13,
		UnfilteredBits: 16,
		SegBounds:      bfghr.PaperSegBounds(),
		SegSize:        8,
		BSTEntries:     8192,
		CounterBits:    5,
	}
}

// New returns a BF-GEHL predictor for cfg: the GEHL engine indexed by
// the BF-GHR.
func New(cfg Config) *gehl.Predictor {
	p, _ := build(cfg)
	return p
}

// build returns the predictor and its history.
func build(cfg Config) (*gehl.Predictor, *ghrHistory) {
	var h *ghrHistory
	p := gehl.NewWithHistory(gehl.Config{
		Tables:      cfg.Tables,
		LogEntries:  cfg.LogEntries,
		CounterBits: cfg.CounterBits,
	}, gehl.Org{Kind: "bfgehl", Name: "bf-gehl"}, func(gehl.Config) gehl.History {
		h = newGHRHistory(cfg)
		return h
	})
	return p, h
}

// ghrHistory indexes the GEHL engine by the BF-GHR: key-map field i is
// table i+1's fold of the BF-GHR's outcome bits.
type ghrHistory struct {
	*bfghr.GHR
	hists []int
}

func newGHRHistory(cfg Config) *ghrHistory {
	g := bfghr.Config{
		UnfilteredBits: cfg.UnfilteredBits,
		SegBounds:      cfg.SegBounds,
		SegSize:        cfg.SegSize,
		BSTEntries:     cfg.BSTEntries,
	}
	width := cfg.UnfilteredBits + (len(cfg.SegBounds)-1)*cfg.SegSize
	hists := history.GeometricRange(2, width, cfg.Tables-1)
	fields := make([][]history.Term, len(hists))
	for i, l := range hists {
		fields[i] = []history.Term{{Ch: 0, N: l, Width: cfg.LogEntries}}
	}
	return &ghrHistory{GHR: bfghr.New(g, fields), hists: hists}
}

func (h *ghrHistory) Lengths() []int { return h.hists }

func (h *ghrHistory) Folds(dst []uint64) {
	kw := h.Keys()
	for i := range dst {
		dst[i] = h.Field(kw, i)
	}
}

func (h *ghrHistory) HashConfig(hs *state.Hash) {
	// The lengths hash with table 0's (PC-only) length 0 in front.
	hs.Ints(append([]int{0}, h.hists...))
	h.GHR.HashConfig(hs)
}

func (h *ghrHistory) SaveState(s *state.Snapshot) error {
	_, err := h.Save(s)
	return err
}

func (h *ghrHistory) LoadState(s *state.Snapshot) func() { return h.Load(s) }
