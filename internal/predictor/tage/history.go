package tage

import (
	"bfbp/internal/history"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

// folded is the conventional TAGE history: one fold bank over the raw
// outcome ring with three registers per table (the index fold, and the
// two tag folds), and the path register masked to each table's length.
type folded struct {
	folds    *history.FoldSet
	path     *history.Path
	pathBits int
	pathMask []uint64 // per table
}

func newFolded(cfg Config) History {
	h := &folded{path: history.NewPath(cfg.PathBits), pathBits: cfg.PathBits}
	var regs []history.FoldReg
	maxHist := 0
	for _, tc := range cfg.Tables {
		maxHist = max(maxHist, tc.HistLen)
		regs = append(regs,
			history.FoldReg{Len: tc.HistLen, Width: tc.LogEntries},
			history.FoldReg{Len: tc.HistLen, Width: tc.TagBits},
			history.FoldReg{Len: tc.HistLen, Width: max(tc.TagBits-1, 1)})
		h.pathMask = append(h.pathMask, 1<<uint(min(tc.HistLen, cfg.PathBits))-1)
	}
	h.folds = history.NewFoldSet(regs, maxHist)
	return h
}

func (h *folded) Folds(idx, tag []uint64) {
	path := h.path.Value()
	for i, m := range h.pathMask {
		idx[i] = h.folds.FoldExact(3*i) ^ (path&m)<<20
		tag[i] = h.folds.FoldExact(3*i+1) ^ h.folds.FoldExact(3*i+2)<<1
	}
}

func (h *folded) Commit(pc uint64, taken bool) {
	h.folds.Push(history.Entry{HashedPC: uint32(rng.Hash64(pc >> 2)), Taken: taken})
	h.path.Push(pc)
}

func (h *folded) Reach(histLen int) int { return histLen }

func (h *folded) BiasState(uint64) string { return "" }

func (h *folded) Storage() []sim.Component {
	return []sim.Component{
		{Name: "global history ring", Bits: h.folds.Ring().Cap()},
		{Name: "path history", Bits: h.pathBits},
	}
}

func (h *folded) Probe(*sim.TableStats) {}

// HashConfig folds in the ring capacity. It also marks the snapshot
// layout that rebuilds the fold registers instead of saving them, so an
// older snapshot fails as a config mismatch.
func (h *folded) HashConfig(hs *state.Hash) { hs.Int(h.folds.Ring().Cap()) }

// SaveState writes the ring and path register. The fold registers are
// a function of the ring's newest bits and are rebuilt on load.
func (h *folded) SaveState(s *state.Snapshot) error {
	hs := s.Section("history")
	h.folds.Ring().SaveState(hs)
	h.path.SaveState(hs)
	return nil
}

func (h *folded) LoadState(s *state.Snapshot) func() {
	hs := s.Dec("history")
	ring := history.NewRing(h.folds.Ring().Cap())
	ring.LoadState(hs)
	path := history.NewPath(h.pathBits)
	path.LoadState(hs)
	return func() {
		h.folds.Restore(ring)
		h.path = path
	}
}
