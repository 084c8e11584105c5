// Package rs implements the paper's recency-stack structures: the
// monolithic recency stack used by BF-Neural (§III-B, Fig. 3), which keeps
// only the most recent occurrence of each non-biased branch together with
// its positional history (§III-C), and the segmented recency stack used by
// BF-TAGE (§V-B1, Fig. 7), which splits a long global history into
// geometric, non-overlapping segments each served by a small associative
// stack.
//
// Hardware performs the associative match with a CAM in one cycle. Both
// models keep a dense stack in recency order, slot 0 the most recent,
// and push through one move-to-front step: a linear find, a shift of the
// slots above the hit, and a write to slot 0 (moveToFront). At hardware
// depths the find and the shift are one short scan and one memmove, and
// a walk of the stack is a linear read. The segmented model keeps one
// such stack and a ring of per-commit records of it, each segment
// reading the record from when its start depth was reached (see
// segmented.go).
package rs

import "slices"

// Entry is a recency-stack slot as exposed to predictors.
type Entry struct {
	// PC is the (possibly hashed) address of the non-biased branch.
	PC uint64
	// Taken is the most recent outcome of that branch.
	Taken bool
	// Dist is the positional history (pos_hist): the absolute distance of
	// the branch's latest occurrence from the current point in the
	// unfiltered global history, in committed branches.
	Dist uint64
}

// Stack is the monolithic recency stack. It tracks the latest occurrence
// of each non-biased branch: a hit moves the entry to the top with a fresh
// outcome and distance, a miss inserts at the top, dropping the deepest
// entry when full. The global sequence counter that defines pos_hist
// advances once per committed branch of any kind (biased branches occupy
// positions in the unfiltered history even though they are filtered from
// the stack).
type Stack struct {
	// The live entries are pcs[:n], taken[:n] and seqs[:n], slot 0 the
	// most recent; seqs holds the position counter at each push.
	pcs   []uint32
	taken []bool
	seqs  []uint64
	n     int
	seq   uint64
	// maxDist caps reported distances, modelling the finite pos_hist
	// field width of a hardware implementation.
	maxDist uint64
}

// NewStack returns a recency stack of the given depth. distBits is the
// width of the pos_hist field; distances saturate at 2^distBits - 1.
func NewStack(depth, distBits int) *Stack {
	if depth < 1 {
		panic("rs: stack depth must be >= 1")
	}
	if distBits < 1 || distBits > 63 {
		panic("rs: distBits out of range")
	}
	return &Stack{
		pcs:     make([]uint32, depth),
		taken:   make([]bool, depth),
		seqs:    make([]uint64, depth),
		maxDist: 1<<distBits - 1,
	}
}

// Tick advances the global position by one committed branch. Call it once
// per committed branch, before Push for that branch.
func (s *Stack) Tick() { s.seq++ }

// Push records the latest occurrence of a non-biased branch. If pc is
// already present it is moved to the top (the Fig. 3 shift with clock-gated
// downstream flip-flops); otherwise it is inserted at the top and the
// deepest entry falls off when the stack is full.
func (s *Stack) Push(pc uint32, taken bool) {
	j := moveToFront(s.pcs, s.seqs, s.n, pc, s.seq)
	copy(s.taken[1:j+1], s.taken[:j])
	s.taken[0] = taken
	if j == s.n {
		s.n++
	}
}

// moveToFront makes pc, pushed at position seq, the most recent of the n
// live entries of a recency stack with len(pcs) slots, and returns the
// slot whose old occupant left: the stale occurrence on a hit, else the
// first free slot, else the least recent slot, which falls off. Slots
// 0..j-1 shift one deeper and everything beyond j is untouched, so the
// caller shifts its outcome form the same way.
func moveToFront(pcs []uint32, seqs []uint64, n int, pc uint32, seq uint64) int {
	j := slices.Index(pcs[:n], pc)
	if j < 0 {
		j = min(n, len(pcs)-1)
	}
	copy(pcs[1:j+1], pcs[:j])
	copy(seqs[1:j+1], seqs[:j])
	pcs[0], seqs[0] = pc, seq
	return j
}

// Len returns the number of live entries.
func (s *Stack) Len() int { return s.n }

// Pos returns the position counter: the number of Ticks so far.
func (s *Stack) Pos() uint64 { return s.seq }

// At returns the i-th entry from the top (i = 0 is the most recent),
// with its current pos_hist distance. Hot paths read a View instead.
func (s *Stack) At(i int) Entry {
	if i < 0 || i >= s.n {
		panic("rs: At index out of range")
	}
	return Entry{PC: uint64(s.pcs[i]), Taken: s.taken[i], Dist: min(s.seq-s.seqs[i], s.maxDist)}
}

// View is a read-only window into a Stack's live entries, most recent
// first, for hot loops that fold the recency walk into their own
// iteration. PC, Taken and Seq have one element per live entry; a live
// distance is min(Cur - Seq[j], MaxDist). The window is invalidated by
// the next Push/Tick — consume it immediately, never retain it.
type View struct {
	PC      []uint32
	Taken   []bool
	Seq     []uint64
	Cur     uint64
	MaxDist uint64
}

// View returns the stack's current dense view.
func (s *Stack) View() View {
	return View{
		PC:      s.pcs[:s.n],
		Taken:   s.taken[:s.n],
		Seq:     s.seqs[:s.n],
		Cur:     s.seq,
		MaxDist: s.maxDist,
	}
}
