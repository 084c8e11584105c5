// Package rs implements the paper's recency-stack structures: the
// monolithic recency stack used by BF-Neural (§III-B, Fig. 3), which keeps
// only the most recent occurrence of each non-biased branch together with
// its positional history (§III-C), and the segmented recency stack used by
// BF-TAGE (§V-B1, Fig. 7), which splits a long global history into
// geometric, non-overlapping segments each served by a small associative
// stack.
//
// Hardware performs the associative match with a CAM in one cycle; the
// monolithic model does the same with a hash index over a fixed slot
// buffer threaded onto a recency list (see cam.go), so hit lookup and
// push are O(1). The segmented model keeps one small stack and a ring of
// per-commit records of it, each segment reading the record from when
// its start depth was reached (see segmented.go).
package rs

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
	c   cam
	seq uint64
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
		c:       newCam(depth),
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
func (s *Stack) Push(pc uint64, taken bool) { s.c.push(pc, taken, s.seq) }

// Len returns the number of live entries.
func (s *Stack) Len() int { return s.c.n }

// Depth returns the stack capacity.
func (s *Stack) Depth() int { return len(s.c.pc) }

// At returns the i-th entry from the top (i = 0 is the most recent),
// with its current pos_hist distance. It walks the recency list; hot
// paths iterate with Iter instead.
func (s *Stack) At(i int) Entry {
	if i < 0 || i >= s.c.n {
		panic("rs: At index out of range")
	}
	slot := s.c.at(i)
	return Entry{PC: s.c.pc[slot], Taken: s.c.taken[slot], Dist: s.dist(s.c.seq[slot])}
}

// Contains reports whether pc currently has an entry.
func (s *Stack) Contains(pc uint64) bool { return s.c.lookup(pc) != camNil }

// Iter returns a cursor over the stack in recency order (most recent
// first). Iteration is O(1) per entry.
func (s *Stack) Iter() Iter { return Iter{s: s} }

// View is a read-only window into a Stack's dense storage, for fused
// hot loops that fold the recency walk into their own iteration instead
// of staging entries through Iter. Order[k] (k < N) is the slot of
// the k-th most recent entry in the PC/Taken/Seq slot arrays; a live
// distance is min(Cur - Seq[slot], MaxDist). The window is invalidated
// by the next Push/Tick — consume it immediately, never retain it.
type View struct {
	Order   []int32
	PC      []uint64
	Taken   []bool
	Seq     []uint64
	N       int
	Cur     uint64
	MaxDist uint64
}

// View returns the stack's current dense view.
func (s *Stack) View() View {
	return View{
		Order:   s.c.order,
		PC:      s.c.pc,
		Taken:   s.c.taken,
		Seq:     s.c.seq,
		N:       s.c.n,
		Cur:     s.seq,
		MaxDist: s.maxDist,
	}
}

// Iter walks a Stack from the most recent entry downward.
type Iter struct {
	s *Stack
	k int
}

// Next returns the next entry, or ok=false at the end.
func (it *Iter) Next() (Entry, bool) {
	c := &it.s.c
	if it.k >= c.n {
		return Entry{}, false
	}
	sl := c.order[it.k]
	it.k++
	return Entry{PC: c.pc[sl], Taken: c.taken[sl], Dist: it.s.dist(c.seq[sl])}, true
}

func (s *Stack) dist(entrySeq uint64) uint64 {
	d := s.seq - entrySeq
	if d > s.maxDist {
		return s.maxDist
	}
	return d
}

// StorageBits models each entry as a hashed address + outcome + pos_hist
// field (the paper's Table I budgets 16 bits per RS entry).
func (s *Stack) StorageBits() int {
	distBits := 0
	for m := s.maxDist; m > 0; m >>= 1 {
		distBits++
	}
	// 14-bit hashed PC + 1 outcome bit + pos_hist field.
	return len(s.c.pc) * (14 + 1 + distBits)
}
