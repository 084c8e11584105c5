package rs

import "bfbp/internal/history"

// Segmented is the BF-TAGE history structure of Fig. 7: the long global
// history is divided into non-overlapping segments whose sizes form a
// geometric series, and each segment is covered by a small recency stack
// holding at most segSize non-biased branches. A branch enters a segment's
// stack when it reaches the segment's starting depth in the unfiltered
// history (evicting any older same-address entry), and falls out when it
// reaches the segment's ending depth — at which point the next, deeper
// segment considers it. Associative searches are therefore localized to
// one small stack per boundary crossing instead of one monolithic
// structure, which is what makes the design implementable (§V-B1).
//
// Each segment stores its slots as small recency-ordered parallel arrays
// (a segment holds at most 8 entries, so the associative match is a
// cache-line scan and an insert is a short memmove) and maintains its
// BF-GHR contribution — outcome bits and low address bits of its slots
// in recency order — directly as packed words, updated in place by every
// mutation. AppendPacked therefore assembles the full BF-GHR with one
// word append per segment and no per-slot walk, and Commit can hand
// observers the exact XOR delta of a segment's packed words for free.
type Segmented struct {
	bounds  []int // ascending depths; segment i covers [bounds[i], bounds[i+1])
	segSize int
	segs    []segment
	ring    *history.Ring
	seq     uint64
	// onPack, when set, receives the XOR delta of a segment's packed
	// words the moment a Commit mutates it. Key maps subscribe here to
	// keep their key words current without re-deriving folds from the
	// full BF-GHR.
	onPack func(seg int, takenDelta, pcDelta uint64)
}

// segment is one recency stack in structure-of-arrays layout: pcs/seqs
// hold the live entries in recency order (slot 0 = most recent), and
// takenBits/pcBits pack the slots' outcome and low address bits (bit j =
// slot j, empty slots zero), kept current by every mutation. seqs is
// strictly decreasing — entries are inserted with ever-increasing
// sequence numbers — so expiry only ever inspects the tail.
type segment struct {
	pcs       []uint32
	seqs      []uint64
	n         int
	takenBits uint64
	pcBits    uint64
}

// NewSegmented builds a segmented recency stack. bounds must be a strictly
// ascending list of depths; segment i covers unfiltered-history depths
// [bounds[i], bounds[i+1]), so len(bounds)-1 segments are created. segSize
// is the per-segment stack capacity (8 in the paper).
func NewSegmented(bounds []int, segSize int) *Segmented {
	if len(bounds) < 2 {
		panic("rs: segmented needs at least two boundary depths")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("rs: segment bounds must be strictly ascending")
		}
	}
	if bounds[0] < 1 {
		panic("rs: first segment boundary must be >= 1")
	}
	if segSize < 1 || segSize > 64 {
		panic("rs: segment size out of range [1,64]")
	}
	cap := 1
	for cap < bounds[len(bounds)-1]+1 {
		cap <<= 1
	}
	s := &Segmented{
		bounds:  append([]int(nil), bounds...),
		segSize: segSize,
		segs:    make([]segment, len(bounds)-1),
		ring:    history.NewRing(cap),
	}
	for i := range s.segs {
		s.segs[i] = segment{
			pcs:  make([]uint32, segSize),
			seqs: make([]uint64, segSize),
		}
	}
	return s
}

// SetPackObserver registers fn to receive the XOR delta of a segment's
// packed words whenever a Commit mutates it. It first feeds fn every
// non-empty segment's current words, the delta from empty, so an
// observer that starts from empty segments is in sync from the outset
// (after a LoadState too). Pass nil to detach.
func (s *Segmented) SetPackObserver(fn func(seg int, takenDelta, pcDelta uint64)) {
	s.onPack = fn
	if fn == nil {
		return
	}
	for i := range s.segs {
		if t, p := s.segs[i].takenBits, s.segs[i].pcBits; t|p != 0 {
			fn(i, t, p)
		}
	}
}

// Commit records a committed branch and advances every segment: branches
// crossing a segment's starting depth are inserted (if non-biased), and
// entries that have sunk past a segment's ending depth are evicted.
func (s *Segmented) Commit(e history.Entry) {
	s.seq++
	s.ring.Push(e)
	for i := range s.segs {
		start := uint64(s.bounds[i])
		end := uint64(s.bounds[i+1])
		seg := &s.segs[i]
		oldT, oldP := seg.takenBits, seg.pcBits
		// Evict entries that fell past the segment's end. Entries are in
		// recency order, so only the tail can expire.
		for seg.n > 0 && s.seq-seg.seqs[seg.n-1] >= end {
			seg.evictTail()
		}
		// The branch that just reached depth `start` enters this segment.
		if s.seq >= start {
			d := int(start)
			if s.ring.NonBiasedAt(d) {
				seg.push(s.ring.PCAt(d), s.ring.TakenAt(d), s.seq-start)
			}
		}
		if s.onPack != nil {
			if dT, dP := oldT^seg.takenBits, oldP^seg.pcBits; dT|dP != 0 {
				s.onPack(i, dT, dP)
			}
		}
	}
}

// evictTail drops the least recent entry (n must be > 0).
func (g *segment) evictTail() {
	g.n--
	m := ^(uint64(1) << uint(g.n))
	g.takenBits &= m
	g.pcBits &= m
}

// push records the latest occurrence of pc: a hit drops the stale
// occurrence and re-inserts at the front; a miss inserts at the front,
// evicting the least recent entry when the stack is full. These are
// exactly the shift register's hit/insert/evict cases, fused into one
// rotate of the slots in [0, j]: everything at or beyond j+1 is
// untouched, slot j's old occupant (the stale hit or the evicted tail)
// drops out, and slots 0..j-1 shift one position deeper.
func (g *segment) push(pc uint32, taken bool, seq uint64) {
	n := g.n
	j := -1
	for k := 0; k < n; k++ {
		if g.pcs[k] == pc {
			j = k
			break
		}
	}
	if j == 0 {
		// Refreshing the most recent entry leaves the order untouched.
		g.seqs[0] = seq
		g.takenBits &^= 1
		if taken {
			g.takenBits |= 1
		}
		return
	}
	if j < 0 {
		if n == len(g.pcs) {
			j = n - 1
		} else {
			j = n
			g.n = n + 1
		}
	}
	copy(g.pcs[1:j+1], g.pcs[:j])
	copy(g.seqs[1:j+1], g.seqs[:j])
	g.pcs[0] = pc
	g.seqs[0] = seq
	lo := uint64(1)<<uint(j+1) - 1
	tb := g.takenBits&^lo | (g.takenBits<<1)&lo
	if taken {
		tb |= 1
	}
	g.takenBits = tb
	g.pcBits = g.pcBits&^lo | (g.pcBits<<1)&lo | uint64(pc&1)
}

// Segments returns the number of segments.
func (s *Segmented) Segments() int { return len(s.segs) }

// SegSize returns the per-segment capacity.
func (s *Segmented) SegSize() int { return s.segSize }

// SegmentLen returns the live entry count of segment i.
func (s *Segmented) SegmentLen(i int) int { return s.segs[i].n }

// SegmentEntry returns slot j of segment i (j = 0 most recent). Empty
// slots return a zero Entry with ok=false; keeping the geometry fixed lets
// BF-TAGE build a stable-width BF-GHR bit vector.
func (s *Segmented) SegmentEntry(i, j int) (Entry, bool) {
	seg := &s.segs[i]
	if j < 0 || j >= seg.n {
		return Entry{}, false
	}
	return Entry{
		PC:    uint64(seg.pcs[j]),
		Taken: seg.takenBits>>uint(j)&1 != 0,
		Dist:  s.seq - seg.seqs[j],
	}, true
}

// AppendPacked appends the segmented stacks' BF-GHR contribution to two
// packed vectors — outcome bits to ghr, hashed-address low bits to pcs,
// segSize bits per segment in increasing depth order, empty slots zero.
// Together with the caller's recent unfiltered bits this forms the
// paper's BF-GHR; BF-TAGE mixes the address bits into its index hash so
// that entries with identical outcomes but different addresses produce
// different contexts.
func (s *Segmented) AppendPacked(ghr, pcs *history.BitVec) {
	for i := range s.segs {
		ghr.Append(s.segs[i].takenBits, s.segSize)
		pcs.Append(s.segs[i].pcBits, s.segSize)
	}
}

// AppendBFGHR appends the segmented stacks' outcome bits to dst in
// increasing depth order — segment 0's slots first — with empty slots
// contributing false. It is the []bool reference form of AppendPacked.
func (s *Segmented) AppendBFGHR(dst []bool) []bool {
	for i := range s.segs {
		for j := 0; j < s.segSize; j++ {
			dst = append(dst, s.segs[i].takenBits>>uint(j)&1 != 0)
		}
	}
	return dst
}

// AppendBFPCs appends the segmented stacks' hashed-address low bits
// (1 bit per slot) to dst, same geometry as AppendBFGHR.
func (s *Segmented) AppendBFPCs(dst []bool) []bool {
	for i := range s.segs {
		for j := 0; j < s.segSize; j++ {
			dst = append(dst, s.segs[i].pcBits>>uint(j)&1 != 0)
		}
	}
	return dst
}

// Bits returns the total BF-GHR contribution in bits (segments × segSize).
func (s *Segmented) Bits() int { return len(s.segs) * s.segSize }

// Ring exposes the underlying unfiltered-history ring (depth 1 = newest).
func (s *Segmented) Ring() *history.Ring { return s.ring }

// StorageBits budgets each slot at 16 bits (hashed address + outcome +
// bookkeeping), matching the paper's Table I "RS: 142 entries × 16 bits".
func (s *Segmented) StorageBits() int { return s.Bits() * 16 }
