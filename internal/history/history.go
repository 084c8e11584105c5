// Package history provides the global-history machinery shared by every
// history-based predictor in this repository: a ring buffer of committed
// branches, incrementally maintained folded histories (the circular shift
// registers used by TAGE-class predictors and by the paper's fhist
// optimization, §IV-A), the linear key map the bias-free cores index
// their tables with (keymap.go), geometric history-length series (O-GEHL
// style), and a compact path-history register.
package history

import (
	"math"
	"math/bits"
)

// Entry is one committed branch as seen by the history structures.
type Entry struct {
	// HashedPC is a compact hash of the branch address (the paper's
	// GHRunfiltered stores a 14-bit hashed PC per branch; we keep 32 bits
	// and let consumers mask).
	HashedPC uint32
	// Taken is the resolved direction.
	Taken bool
	// NonBiased records the branch's BST classification at commit time.
	// BF-TAGE consults it when a branch crosses a segment boundary.
	NonBiased bool
}

// Ring is a fixed-capacity circular buffer of the most recent committed
// branches, addressed by depth: depth 1 is the most recent branch, depth 2
// the one before it, and so on. It is the software model of the paper's
// GHRunfiltered structure.
//
// The storage is structure-of-arrays: hashed PCs in one dense array and
// the single-bit outcome / bias-status fields packed 64-per-word, so a
// 2048-deep ring keeps its outcome history in 256 bytes (cache-resident)
// instead of striding over 12-byte entry structs. The ring additionally
// maintains two packed shift words over the 64 most recent branches —
// outcome bits and low address bits, newest at bit 0 — so hot paths that
// consume a short recent-history prefix (the BF-GHR's unfiltered head)
// read one masked word instead of walking entries.
type Ring struct {
	pcs []uint32
	// takenW / nbW hold one bit per slot (slot i at word i/64, bit i%64).
	takenW []uint64
	nbW    []uint64
	mask   int
	head   int // index of the most recent entry
	size   int
	// recentTaken / recentPC pack the newest <= 64 entries: bit d-1 is
	// the outcome / low hashed-address bit of the branch at depth d.
	recentTaken uint64
	recentPC    uint64
}

// NewRing returns a ring holding up to capacity entries; capacity must be
// a positive power of two.
func NewRing(capacity int) *Ring {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic("history: ring capacity must be a positive power of two")
	}
	return &Ring{
		pcs:    make([]uint32, capacity),
		takenW: make([]uint64, (capacity+63)/64),
		nbW:    make([]uint64, (capacity+63)/64),
		mask:   capacity - 1,
		head:   -1,
	}
}

// NewRingFor returns a ring that reads depth branches back: its
// capacity is the smallest power of two >= depth+2.
func NewRingFor(depth int) *Ring {
	capacity := 1
	for capacity < depth+2 {
		capacity <<= 1
	}
	return NewRing(capacity)
}

// setSlotBit stores b at slot position pos of a packed word array.
func setSlotBit(w []uint64, pos int, b bool) {
	m := uint64(1) << (uint(pos) & 63)
	if b {
		w[pos>>6] |= m
	} else {
		w[pos>>6] &^= m
	}
}

// slotBit reads the bit at slot position pos of a packed word array.
func slotBit(w []uint64, pos int) bool {
	return w[pos>>6]>>(uint(pos)&63)&1 != 0
}

// Push records a newly committed branch as depth 1.
func (r *Ring) Push(e Entry) {
	pos := (r.head + 1) & r.mask
	r.head = pos
	r.pcs[pos] = e.HashedPC
	setSlotBit(r.takenW, pos, e.Taken)
	setSlotBit(r.nbW, pos, e.NonBiased)
	if r.size < len(r.pcs) {
		r.size++
	}
	r.recentTaken <<= 1
	if e.Taken {
		r.recentTaken |= 1
	}
	r.recentPC <<= 1
	r.recentPC |= uint64(e.HashedPC & 1)
}

// RecentTaken returns the packed outcome bits of the n most recent
// branches (bit i = depth i+1, newest at bit 0); depths that have not
// been pushed yet read as zero. n must be in [0, 64].
func (r *Ring) RecentTaken(n int) uint64 { return r.recentTaken & lowMask(n) }

// RecentPC returns the packed low hashed-address bits of the n most
// recent branches, with the same geometry as RecentTaken.
func (r *Ring) RecentPC(n int) uint64 { return r.recentPC & lowMask(n) }

// lowMask returns a mask of the low n bits, n in [0, 64].
func lowMask(n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// At returns the entry at the given depth (1 = most recent). ok is false
// when fewer than depth branches have been pushed or depth exceeds the
// capacity.
func (r *Ring) At(depth int) (Entry, bool) {
	if depth < 1 || depth > r.size {
		return Entry{}, false
	}
	pos := (r.head - (depth - 1)) & r.mask
	return Entry{
		HashedPC:  r.pcs[pos],
		Taken:     slotBit(r.takenW, pos),
		NonBiased: slotBit(r.nbW, pos),
	}, true
}

// Window is a read-only view of a ring's most recent branches for hot
// loops that walk many depths: position i is depth i+1, valid for i in
// [0, N). It reads the ring's storage in place, with no population test
// per position, and is valid until the next Push or LoadState.
type Window struct {
	// N is the number of populated positions the view covers.
	N     int
	pcs   []uint32
	taken []uint64
	head  int
	mask  int
}

// Window returns a view of the min(n, Len()) most recent branches.
func (r *Ring) Window(n int) Window {
	return Window{N: min(n, r.size), pcs: r.pcs, taken: r.takenW, head: r.head, mask: r.mask}
}

// PC returns the hashed PC at position i (depth i+1), i in [0, N).
func (w *Window) PC(i int) uint32 { return w.pcs[(w.head-i)&w.mask] }

// Taken returns the outcome at position i (depth i+1), i in [0, N).
func (w *Window) Taken(i int) bool { return slotBit(w.taken, (w.head-i)&w.mask) }

// Len returns the number of populated entries (saturating at capacity).
func (r *Ring) Len() int { return r.size }

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.pcs) }

// BitVec is a packed append-only bit vector: bit i lives at
// words[i/64] bit i%64, so index 0 (the newest history bit) is the low
// bit of the first word. The BF-GHR reference models of the history,
// bfghr, bftage, bfgehl and rs tests assemble the register into one of
// these and fold it with FoldWords; the cores read a KeyMap instead.
type BitVec struct {
	words []uint64
	n     int
}

// Reset clears the vector, retaining capacity.
func (v *BitVec) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
	v.n = 0
}

// Append adds the low n bits of w (bit 0 first) to the vector. n must be
// in [0, 64].
func (v *BitVec) Append(w uint64, n int) {
	if n <= 0 {
		return
	}
	w &= lowMask(n)
	wi, off := v.n>>6, uint(v.n&63)
	for wi+2 > len(v.words) {
		v.words = append(v.words, 0)
	}
	v.words[wi] |= w << off
	if off > 0 {
		v.words[wi+1] |= w >> (64 - off)
	}
	v.n += n
}

// Len returns the number of appended bits.
func (v *BitVec) Len() int { return v.n }

// Words exposes the packed storage; bits beyond Len are zero.
func (v *BitVec) Words() []uint64 { return v.words }

// Bit returns bit i as a bool (for tests and reference comparisons).
func (v *BitVec) Bit(i int) bool {
	if i < 0 || i >= v.n {
		panic("history: BitVec index out of range")
	}
	return v.words[i>>6]>>(uint(i)&63)&1 != 0
}

// FoldWords folds the first n bits of a packed vector down to width bits:
// the XOR of consecutive width-bit chunks, the group-XOR fold of
// FoldSet's registers. Bits at positions >= n must be zero (BitVec
// guarantees this).
func FoldWords(words []uint64, n, width int) uint64 {
	if width < 1 || width > 63 {
		panic("history: fold width out of range")
	}
	var v uint64
	for pos := 0; pos < n; pos += width {
		wi, off := pos>>6, uint(pos&63)
		chunk := words[wi] >> off
		if off+uint(width) > 64 && wi+1 < len(words) {
			chunk |= words[wi+1] << (64 - off)
		}
		rem := n - pos
		if rem < width {
			chunk &= lowMask(rem)
		} else {
			chunk &= lowMask(width)
		}
		v ^= chunk
	}
	return v
}

// FoldReg names one fold register: the fold of the Len newest outcomes
// into Width bits, the XOR of consecutive Width-bit groups with the
// newest outcome at bit 0 (FoldBits).
type FoldReg struct{ Len, Width int }

// FoldRegs returns one register of the given width per length.
func FoldRegs(lengths []int, width int) []FoldReg {
	regs := make([]FoldReg, len(lengths))
	for i, l := range lengths {
		regs[i] = FoldReg{Len: l, Width: width}
	}
	return regs
}

// FoldSet is the one fold bank: a Ring with fold registers over it,
// each maintained in O(1) per push as the classic circular shift
// register (rotate, insert the new bit, cancel the bit that falls out
// of the Len-deep window). TAGE keeps three registers per table (index
// and two tag folds), O-GEHL one per table, and the neural predictors
// one per quantized length, from which Fold answers "the folded
// history of approximately the last d branches" (§IV-B2): a distance is
// quantized to the nearest maintained length, as a hardware bank of
// fixed fold registers would.
type FoldSet struct {
	ring    *Ring
	lengths []int // per register, non-descending
	regs    []foldReg
	// vals holds each register's live fold value in one dense array,
	// updated by Push and read by Fold/FoldExact.
	vals []uint64
	// byDist maps a distance to the index of the last register whose
	// length is <= distance (-1 when below the smallest), so Fold is
	// one table load instead of a scan over lengths. Distances beyond
	// the ring capacity clamp to the deepest entry.
	byDist []int16
	// Evicted-bit plumbing for Push. A register of length L folds out
	// the outcome bit at depth L every push, and registers of one
	// length share its source. Registers with L <= 64 (the first
	// nShort, lengths being non-descending) read it from the ring's
	// packed recent-outcome word; deeper ones read from win, one 64-bit
	// window of upcoming evicted bits per distinct length in winLen,
	// cut from the ring's packed storage once every 64 pushes
	// (consecutive pushes evict consecutive ring positions). A window
	// never goes stale mid-run: position head+1+j, written at push j,
	// would be consumed at push j+L >= 64, after the next refill. wk is
	// the window cursor; it is a pure cache (refilling early is
	// harmless), so Restore just zeroes it.
	nShort int
	win    []uint64
	winLen []int
	wk     uint
}

// foldReg is one register's hot-loop geometry: its width mask, its
// outpoint bit (bit Len mod width), and its evicted-bit source: the
// recent-word bit position of depth Len (Len-1) for a short register,
// the window index for a deep one.
type foldReg struct {
	mask, out, src uint64
}

// NewFoldSet builds a fold bank over regs, whose lengths must be
// non-descending and widths in [1, 63], on a ring deep enough for depth
// branches (NewRingFor). The ring must hold the longest register's
// window plus one.
func NewFoldSet(regs []FoldReg, depth int) *FoldSet {
	if len(regs) == 0 {
		panic("history: fold set needs at least one register")
	}
	if len(regs) > math.MaxInt16 {
		panic("history: fold set has too many registers")
	}
	s := &FoldSet{ring: NewRingFor(depth)}
	for i, r := range regs {
		if r.Width < 1 || r.Width > 63 {
			panic("history: fold width out of range")
		}
		if r.Len < 1 || i > 0 && r.Len < regs[i-1].Len {
			panic("history: fold set lengths must be positive and non-descending")
		}
		fr := foldReg{mask: 1<<uint(r.Width) - 1, out: 1 << uint(r.Len%r.Width)}
		if r.Len <= 64 {
			fr.src = uint64(r.Len - 1)
			s.nShort = i + 1
		} else {
			if n := len(s.winLen); n == 0 || s.winLen[n-1] != r.Len {
				s.winLen = append(s.winLen, r.Len)
			}
			fr.src = uint64(len(s.winLen) - 1)
		}
		s.lengths = append(s.lengths, r.Len)
		s.regs = append(s.regs, fr)
	}
	capacity := s.ring.Cap()
	if capacity < s.lengths[len(s.lengths)-1]+1 {
		panic("history: fold set ring capacity too small")
	}
	s.vals = make([]uint64, len(regs))
	s.win = make([]uint64, len(s.winLen))
	s.byDist = make([]int16, capacity+1)
	idx := int16(-1)
	for d := 0; d <= capacity; d++ {
		for int(idx)+1 < len(s.lengths) && s.lengths[idx+1] <= d {
			idx++
		}
		s.byDist[d] = idx
	}
	return s
}

// Push commits a branch: updates the ring and every fold register. The
// evicted bits come from packed words (see the field comments) instead
// of per-register ring probes, and no shift depends on a register's
// width (rotate compares against the mask; other shifts are by
// constants or masked counts), so the bank updates in one tight pass.
func (s *FoldSet) Push(e Entry) {
	k := s.wk
	if k == 0 {
		s.refillWindows()
	}
	s.wk = (k + 1) & 63
	// The evicted bits are read from the ring as it was before this
	// push: rt here, the windows at their last refill.
	rt := s.ring.recentTaken
	s.ring.Push(e)
	nb := uint64(0)
	if e.Taken {
		nb = 1
	}
	regs, win := s.regs, s.win
	vals := s.vals[:len(regs)]
	for i := range regs[:s.nShort] {
		r := &regs[i]
		ev := rt >> (r.src & 63) & 1
		vals[i] = rotate(vals[i], r.mask) ^ nb ^ -ev&r.out
	}
	for i := s.nShort; i < len(regs); i++ {
		r := &regs[i]
		ev := win[r.src] >> (k & 63) & 1
		vals[i] = rotate(vals[i], r.mask) ^ nb ^ -ev&r.out
	}
}

// rotate rotates the register c left by one within the width whose mask
// is mask: the bit shifted out at the top (bit width) wraps to bit 0.
func rotate(c, mask uint64) uint64 {
	c <<= 1
	if c > mask {
		c ^= mask + 2
	}
	return c
}

// refillWindows cuts each deep length's next 64 evicted bits from the
// ring's packed outcome words: length L evicts the bit at depth L,
// whose ring position advances by one per push, so a 64-bit slice
// starting at the current depth-L position covers the next 64 pushes.
func (s *FoldSet) refillWindows() {
	r := s.ring
	posMask := uint(r.mask)
	for j, l := range s.winLen {
		p := uint(r.head-(l-1)) & posMask
		wi, sh := p>>6, p&63
		w := r.takenW[wi] >> sh
		if sh != 0 {
			nwi := wi + 1
			if nwi == uint(len(r.takenW)) {
				nwi = 0
			}
			w |= r.takenW[nwi] << (64 - sh)
		}
		s.win[j] = w
	}
}

// refold writes into vals every register recomputed from ring r: the
// fold of r's Len newest outcomes, depths not yet pushed reading as
// zero, which is what Push maintains. It is the bank's one rebuild
// rule; LoadState checks a snapshot's registers against it.
func (s *FoldSet) refold(r *Ring, vals []uint64) {
	for i, l := range s.lengths {
		w := uint(bits.Len64(s.regs[i].mask))
		win := r.Window(l)
		var v uint64
		for d := 0; d < win.N; d++ {
			if win.Taken(d) {
				v ^= 1 << (uint(d) % w)
			}
		}
		vals[i] = v
	}
}

// Restore makes r's branches the bank's history and recomputes every
// register from them. r must have the bank's ring capacity; its
// contents are copied into the bank's ring, so holders of Ring() see
// them.
func (s *FoldSet) Restore(r *Ring) {
	*s.ring = *r
	s.refold(s.ring, s.vals)
	s.wk = 0
}

// Fold returns the register of the largest maintained length that does
// not exceed distance (the last such register when several share it);
// requesting a distance below the smallest maintained length returns 0
// (an empty fold).
func (s *FoldSet) Fold(distance int) uint64 {
	if distance < 0 {
		return 0
	}
	if distance >= len(s.byDist) {
		distance = len(s.byDist) - 1
	}
	idx := s.byDist[distance]
	if idx < 0 {
		return 0
	}
	return s.vals[idx]
}

// FoldExact returns register i.
func (s *FoldSet) FoldExact(i int) uint64 { return s.vals[i] }

// Ring exposes the underlying ring for depth-indexed access.
func (s *FoldSet) Ring() *Ring { return s.ring }

// Lengths returns each register's length (not a copy; do not modify).
func (s *FoldSet) Lengths() []int { return s.lengths }

// Path is a compact path-history register: one low-order PC bit per
// committed branch, newest in bit 0. BF-TAGE hashes "a (limited) 16-bit
// path history consisting of 1 address bit per branch" into its table
// indices (§V-B1).
type Path struct {
	bits  uint64
	width int
	mask  uint64
}

// NewPath returns a path register of the given width in [1, 64].
func NewPath(width int) *Path {
	if width < 1 || width > 64 {
		panic("history: path width out of range")
	}
	var mask uint64
	if width == 64 {
		mask = ^uint64(0)
	} else {
		mask = (1 << width) - 1
	}
	return &Path{width: width, mask: mask}
}

// Push shifts in one address bit of pc (bit 2, skipping typical alignment
// zeroes).
func (p *Path) Push(pc uint64) {
	p.bits = ((p.bits << 1) | ((pc >> 2) & 1)) & p.mask
}

// Value returns the packed path bits.
func (p *Path) Value() uint64 { return p.bits }

// GeometricRange returns n strictly increasing history lengths from lMin to
// lMax following a geometric progression, the standard way TAGE sizes its
// per-table histories.
func GeometricRange(lMin, lMax, n int) []int {
	if n < 1 {
		panic("history: need at least one length")
	}
	if n == 1 {
		return []int{lMin}
	}
	out := make([]int, n)
	ratio := float64(lMax) / float64(lMin)
	for i := 0; i < n; i++ {
		li := int(float64(lMin)*math.Pow(ratio, float64(i)/float64(n-1)) + 0.5)
		if i > 0 && li <= out[i-1] {
			li = out[i-1] + 1
		}
		out[i] = li
	}
	out[n-1] = maxInt(out[n-1], lMax)
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
