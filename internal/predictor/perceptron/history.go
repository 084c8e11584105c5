package perceptron

import (
	"bfbp/internal/history"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

// FoldWidth is the bit width of every fold register the neural
// predictors hash (fhist, §IV-A).
const FoldWidth = 12

// Unfiltered is the raw global history of every committed branch: a
// ring, inside a bank of fold registers when the predictor hashes
// folded history.
type Unfiltered struct {
	ring  *history.Ring
	folds *history.FoldSet // nil without fold registers
	depth int
}

// NewUnfiltered returns a history deep enough to read depth branches
// back, with fold registers at foldLengths, or none when foldLengths
// is nil.
func NewUnfiltered(depth int, foldLengths []int) *Unfiltered {
	if foldLengths == nil {
		return &Unfiltered{ring: history.NewRingFor(depth), depth: depth}
	}
	fs := history.NewFoldSet(history.FoldRegs(foldLengths, FoldWidth), depth)
	return &Unfiltered{ring: fs.Ring(), folds: fs, depth: depth}
}

// Ring returns the history ring.
func (u *Unfiltered) Ring() *history.Ring { return u.ring }

// Folds returns the fold registers, nil when there are none.
func (u *Unfiltered) Folds() *history.FoldSet { return u.folds }

// Commit records a resolved branch.
func (u *Unfiltered) Commit(pc uint64, taken bool) {
	e := history.Entry{HashedPC: uint32(rng.Hash64(pc >> 2)), Taken: taken}
	if u.folds != nil {
		u.folds.Push(e)
	} else {
		u.ring.Push(e)
	}
}

// Probe adds nothing: the raw history has no fill or classification to
// report.
func (u *Unfiltered) Probe(*sim.TableStats) {}

// Save writes the history (the fold registers, which carry the ring,
// or the bare ring) into the "history" section.
func (u *Unfiltered) Save(s *state.Snapshot) {
	if u.folds != nil {
		u.folds.SaveState(s.Section("history"))
	} else {
		u.ring.SaveState(s.Section("history"))
	}
}

// Load decodes what Save wrote into a fresh history, leaving the
// "history" cursor after it for the caller's own state. commit
// installs it.
func (u *Unfiltered) Load(s *state.Snapshot) (commit func()) {
	var lengths []int
	if u.folds != nil {
		lengths = u.folds.Lengths()
	}
	fresh := NewUnfiltered(u.depth, lengths)
	if fresh.folds != nil {
		fresh.folds.LoadState(s.Dec("history"))
	} else {
		fresh.ring.LoadState(s.Dec("history"))
	}
	return func() { *u = *fresh }
}

// Dense is the one dense-position fill: history position i in 1..h
// selects row hash(pc, i, the hashed PC at depth i, the fold of the i
// most recent outcomes when there are fold registers) of the first
// correlating table, rows of h weights, flat index row*h + i-1.
type Dense struct {
	u       *Unfiltered
	h       int
	rowMask uint64
}

// NewDense returns the fill over u's h most recent positions into a
// table of rows rows (a power of two).
func NewDense(u *Unfiltered, h, rows int) Dense {
	return Dense{u: u, h: h, rowMask: uint64(rows - 1)}
}

// Fill writes the indices and directions of positions 1..h for the
// hashed PC pch into idx and dirs and returns how many it wrote. Until
// the history holds h branches the unpopulated positions, always the
// deepest, are left out.
func (d *Dense) Fill(pch uint64, idx []int32, dirs []bool) int {
	win, fs := d.u.ring.Window(d.h), d.u.folds
	n := win.N
	idx, dirs = idx[:n], dirs[:n]
	h := int32(d.h)
	for i := range idx {
		key := pch ^ uint64(win.PC(i))*0x9e3779b97f4a7c15 ^ uint64(i+1)<<40
		if fs != nil {
			key ^= fs.Fold(i+1) << 17
		}
		idx[i] = int32(rng.Hash64(key)&d.rowMask)*h + int32(i)
		dirs[i] = win.Taken(i)
	}
	return n
}
