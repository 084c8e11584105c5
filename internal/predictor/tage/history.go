package tage

import (
	"bfbp/internal/history"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

// folded is the conventional TAGE history: the raw outcome ring with
// three incrementally folded registers per table (index, and the two
// tag folds), and the path register masked to each table's length.
type folded struct {
	ring     *history.Ring
	path     *history.Path
	pathBits int
	regs     []foldRegs
}

type foldRegs struct {
	histLen         int
	pathMask        uint64
	idx, tag0, tag1 history.Folded
}

func newFolded(cfg Config) History {
	h := &folded{path: history.NewPath(cfg.PathBits), pathBits: cfg.PathBits}
	maxHist := 0
	for _, tc := range cfg.Tables {
		maxHist = max(maxHist, tc.HistLen)
		h.regs = append(h.regs, foldRegs{
			histLen:  tc.HistLen,
			pathMask: 1<<uint(min(tc.HistLen, cfg.PathBits)) - 1,
			idx:      *history.NewFolded(tc.HistLen, tc.LogEntries),
			tag0:     *history.NewFolded(tc.HistLen, tc.TagBits),
			tag1:     *history.NewFolded(tc.HistLen, max(tc.TagBits-1, 1)),
		})
	}
	ringCap := 1
	for ringCap < maxHist+2 {
		ringCap <<= 1
	}
	h.ring = history.NewRing(ringCap)
	return h
}

func (h *folded) Folds(idx, tag []uint64) {
	path := h.path.Value()
	for i := range h.regs {
		r := &h.regs[i]
		idx[i] = r.idx.Value() ^ (path&r.pathMask)<<20
		tag[i] = r.tag0.Value() ^ r.tag1.Value()<<1
	}
}

func (h *folded) Commit(pc uint64, taken bool) {
	for i := range h.regs {
		r := &h.regs[i]
		old := h.ring.TakenAt(r.histLen)
		r.idx.Update(taken, old)
		r.tag0.Update(taken, old)
		r.tag1.Update(taken, old)
	}
	h.ring.Push(history.Entry{HashedPC: uint32(rng.Hash64(pc >> 2)), Taken: taken})
	h.path.Push(pc)
}

func (h *folded) Reach(histLen int) int { return histLen }

func (h *folded) BiasState(uint64) string { return "" }

func (h *folded) Storage() []sim.Component {
	return []sim.Component{
		{Name: "global history ring", Bits: h.ring.Cap()},
		{Name: "path history", Bits: h.pathBits},
	}
}

func (h *folded) Probe(*sim.TableStats) {}

// HashConfig folds in the ring capacity. It also marks the snapshot
// layout that rebuilds the fold registers instead of saving them, so an
// older snapshot fails as a config mismatch.
func (h *folded) HashConfig(hs *state.Hash) { hs.Int(h.ring.Cap()) }

// SaveState writes the ring and path register. The fold registers are
// a function of the ring's newest bits and are rebuilt on load.
func (h *folded) SaveState(s *state.Snapshot) error {
	hs := s.Section("history")
	h.ring.SaveState(hs)
	h.path.SaveState(hs)
	return nil
}

func (h *folded) LoadState(s *state.Snapshot) (func(), error) {
	hs, err := s.Dec("history")
	if err != nil {
		return nil, err
	}
	ring := history.NewRing(h.ring.Cap())
	if err := ring.LoadState(hs); err != nil {
		return nil, err
	}
	path := history.NewPath(h.pathBits)
	if err := path.LoadState(hs); err != nil {
		return nil, err
	}
	return func() {
		h.ring, h.path = ring, path
		// A register of length L holds the fold of the L newest outcomes
		// (older bits were folded back out), so replaying them oldest
		// first into a cleared register restores it exactly. The ring
		// holds at least L+2 entries, zero before the run's first branch.
		for i := range h.regs {
			r := &h.regs[i]
			r.idx.Reset()
			r.tag0.Reset()
			r.tag1.Reset()
			for d := r.histLen; d >= 1; d-- {
				b := ring.TakenAt(d)
				r.idx.Update(b, false)
				r.tag0.Update(b, false)
				r.tag1.Update(b, false)
			}
		}
	}, nil
}
