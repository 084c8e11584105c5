package rs

import (
	"math/bits"
	"slices"

	"bfbp/internal/history"
)

// Segmented is the BF-TAGE history structure of Fig. 7: the long global
// history is divided into non-overlapping segments whose sizes form a
// geometric series, and each segment holds at most segSize non-biased
// branches — the latest occurrence of each distinct address among the
// branches at the segment's depths, most recent first. In hardware each
// segment is a small recency stack that a branch enters when it reaches
// the segment's starting depth and leaves at its ending depth, so every
// associative search stays local to one small stack (§V-B1).
//
// The model keeps one recency stack instead of one per segment. Segment
// i at commit t is the part of that stack, as it stood at commit
// c = t-bounds[i]+1 (the commit that just reached the segment's start),
// younger than the segment's width bounds[i+1]-bounds[i]: both are the
// non-biased addresses of commits (c-width, c] ordered by latest
// occurrence and cut to segSize. So a commit pushes its branch into the
// one stack (if non-biased) and writes one record to a ring indexed by
// commit number: the stack's packed outcome and address bits and, for
// each distinct segment width, how many leading slots are younger than
// it. Each segment's BF-GHR words are then one record read, cut to its
// width's count, which Commit writes to the slices Words returns.
// Entries with their distances are found by walking the unfiltered ring
// (SegmentEntry, SaveState), off the hot path.
type Segmented struct {
	bounds  []int // ascending depths; segment i covers [bounds[i], bounds[i+1])
	segSize int
	ring    *history.Ring
	seq     uint64
	// The recency stack over the non-biased commits, slot 0 the most
	// recent: addresses, commit numbers, and the slots' outcome and
	// address low bits packed (bit j = slot j).
	pcs         []uint32
	seqs        []uint64
	taken, addr uint64
	// widths are the distinct segment widths, ascending; young[k] counts
	// the leading slots younger than widths[k]. The tail expires at the
	// widest, so the last count is the stack's live length.
	widths []uint64
	young  []int
	// recs is a power-of-two ring of per-commit records, stride words
	// each, holding bit fields that never straddle a word: the taken
	// bits at bit 0, the address bits at addrOff, and young[k] in cntBits
	// bits at cntOff[k].
	recs    []uint64
	recMask uint64
	stride  int
	addrOff uint
	cntBits uint
	cntOff  []uint
	segs    []view
	// segTaken and segPCs are each segment's current BF-GHR words (bit
	// j = slot j, empty slots zero), as Words returns them.
	segTaken, segPCs []uint64
}

// view is where a segment's record field lies: start is the segment's
// starting depth, cntOff its width's count offset.
type view struct {
	start  uint64
	cntOff uint
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
	s := &Segmented{
		bounds:   append([]int(nil), bounds...),
		segSize:  segSize,
		ring:     history.NewRing(1 << bits.Len(uint(bounds[len(bounds)-1]))),
		pcs:      make([]uint32, segSize),
		seqs:     make([]uint64, segSize),
		segs:     make([]view, len(bounds)-1),
		segTaken: make([]uint64, len(bounds)-1),
		segPCs:   make([]uint64, len(bounds)-1),
	}
	for i := range s.segs {
		s.widths = append(s.widths, uint64(bounds[i+1]-bounds[i]))
	}
	slices.Sort(s.widths)
	s.widths = slices.Compact(s.widths)
	s.young = make([]int, len(s.widths))
	var off uint
	field := func(w uint) uint {
		if off&63+w > 64 {
			off = (off + 63) &^ 63
		}
		off += w
		return off - w
	}
	field(uint(segSize))
	s.addrOff = field(uint(segSize))
	s.cntBits = uint(bits.Len(uint(segSize)))
	for range s.widths {
		s.cntOff = append(s.cntOff, field(s.cntBits))
	}
	s.stride = int(off+63) / 64
	for i := range s.segs {
		k, _ := slices.BinarySearch(s.widths, uint64(bounds[i+1]-bounds[i]))
		s.segs[i].start = uint64(bounds[i])
		s.segs[i].cntOff = s.cntOff[k]
	}
	// A segment reads the record of the commit at its start depth, so
	// the ring spans the deepest start.
	nrec := 1 << bits.Len(uint(bounds[len(bounds)-2]-1))
	s.recs = make([]uint64, nrec*s.stride)
	s.recMask = uint64(nrec - 1)
	return s
}

// Commit records a committed branch: it ages the stack, pushes the
// branch if it is non-biased, writes the commit's record, and moves
// every segment's words to the record of the commit now at its starting
// depth.
func (s *Segmented) Commit(e history.Entry) {
	s.seq++
	s.ring.Push(e)
	// Ages grow by one, so at most the last young slot of each width
	// reaches it.
	for k, w := range s.widths {
		if c := s.young[k]; c > 0 && s.seq-s.seqs[c-1] >= w {
			s.young[k] = c - 1
		}
	}
	if e.NonBiased {
		j := s.enter(e.HashedPC, e.Taken)
		// Slot j's old occupant left and the new entry is young, so
		// every count that did not already cover slot j gains one.
		for k, c := range s.young {
			if c <= j {
				s.young[k] = c + 1
			}
		}
	}
	recs, mask, stride := s.recs, s.recMask, s.stride
	r := int(s.seq&mask) * stride
	clear(recs[r : r+stride])
	put(recs, r, 0, s.taken)
	put(recs, r, s.addrOff, s.addr)
	for k, c := range s.young {
		put(recs, r, s.cntOff[k], uint64(c))
	}
	// Locals, since each store to the words makes s's fields reload.
	seq, addrOff, cntBits := s.seq+1, s.addrOff, s.cntBits
	segTaken, segPCs := s.segTaken[:len(s.segs)], s.segPCs[:len(s.segs)]
	for i, v := range s.segs {
		// Before the segment's start is reached this reads a record
		// not yet written, which is zero: the segment is empty.
		r := int((seq-v.start)&mask) * stride
		n := uint(get(recs, r, v.cntOff, cntBits))
		segTaken[i], segPCs[i] = get(recs, r, 0, n), get(recs, r, addrOff, n)
	}
}

// Words returns every segment's current outcome and address words, in
// increasing depth order (bit j = slot j, empty slots zero). The slices
// belong to s: the next Commit overwrites them and LoadState replaces
// them, and the caller must not modify them.
func (s *Segmented) Words() (taken, pcs []uint64) { return s.segTaken, s.segPCs }

// enter makes pc the stack's most recent entry through moveToFront,
// shifts the packed outcome and address bits the same way, and returns
// the slot whose old occupant left.
func (s *Segmented) enter(pc uint32, taken bool) int {
	j := moveToFront(s.pcs, s.seqs, s.young[len(s.young)-1], pc, s.seq)
	lo := uint64(1)<<uint(j+1) - 1
	s.taken = s.taken&^lo | (s.taken<<1)&lo
	if taken {
		s.taken |= 1
	}
	s.addr = s.addr&^lo | (s.addr<<1)&lo | uint64(pc&1)
	return j
}

// put ORs v into the zeroed field at bit off of the record at word r.
func put(recs []uint64, r int, off uint, v uint64) {
	recs[r+int(off>>6)] |= v << (off & 63)
}

// get returns the low w bits, w in [0, 64], of the field at bit off of
// the record at word r.
func get(recs []uint64, r int, off, w uint) uint64 {
	return recs[r+int(off>>6)] >> (off & 63) & (1<<w - 1)
}

// walk appends segment i's live entries to dst, most recent first: the
// first occurrence of each distinct non-biased address met walking the
// unfiltered ring down from the segment's starting depth. Dist is the
// occurrence's depth.
func (s *Segmented) walk(i int, dst []Entry) []Entry {
	base := len(dst)
	n := s.SegmentLen(i)
	for d := s.bounds[i]; d < s.bounds[i+1] && len(dst)-base < n; d++ {
		e, _ := s.ring.At(d)
		pc := uint64(e.HashedPC)
		if e.NonBiased && !slices.ContainsFunc(dst[base:], func(x Entry) bool { return x.PC == pc }) {
			dst = append(dst, Entry{PC: pc, Taken: e.Taken, Dist: uint64(d)})
		}
	}
	return dst
}

// Segments returns the number of segments.
func (s *Segmented) Segments() int { return len(s.segs) }

// SegSize returns the per-segment capacity.
func (s *Segmented) SegSize() int { return s.segSize }

// SegmentLen returns the live entry count of segment i, from the record
// the last Commit read its words from.
func (s *Segmented) SegmentLen(i int) int {
	r := int((s.seq-s.segs[i].start+1)&s.recMask) * s.stride
	return int(get(s.recs, r, s.segs[i].cntOff, s.cntBits))
}

// Bits returns the total BF-GHR contribution in bits (segments × segSize).
func (s *Segmented) Bits() int { return len(s.segs) * s.segSize }

// Ring exposes the underlying unfiltered-history ring (depth 1 = newest).
func (s *Segmented) Ring() *history.Ring { return s.ring }

// StorageBits budgets each slot at 16 bits (hashed address + outcome +
// bookkeeping), matching the paper's Table I "RS: 142 entries × 16 bits".
func (s *Segmented) StorageBits() int { return s.Bits() * 16 }
