package rs

import (
	"bfbp/internal/history"
	"bfbp/internal/state"
)

// This file preserves the original O(depth) shift-register
// implementations verbatim as reference models: one scan-and-shift
// stack, and one such stack per segment. The differential tests,
// FuzzStack and FuzzSegmented drive them in lockstep with Stack and the
// one-stack Segmented under randomized workloads and assert
// bit-identical observable state — which is what licenses the hot-path
// swap without re-validating any predictor behaviour.

// refStack is the pre-overhaul Stack: parallel slices shifted on every
// push, with a linear associative scan.
type refStack struct {
	pcs     []uint32
	taken   []bool
	seqs    []uint64
	n       int
	seq     uint64
	maxDist uint64
}

func newRefStack(depth, distBits int) *refStack {
	return &refStack{
		pcs:     make([]uint32, depth),
		taken:   make([]bool, depth),
		seqs:    make([]uint64, depth),
		maxDist: 1<<distBits - 1,
	}
}

func (s *refStack) Tick() { s.seq++ }

func (s *refStack) Push(pc uint32, taken bool) {
	hit := -1
	for i := 0; i < s.n; i++ {
		if s.pcs[i] == pc {
			hit = i
			break
		}
	}
	switch {
	case hit >= 0:
		copy(s.pcs[1:hit+1], s.pcs[:hit])
		copy(s.taken[1:hit+1], s.taken[:hit])
		copy(s.seqs[1:hit+1], s.seqs[:hit])
	case s.n < len(s.pcs):
		copy(s.pcs[1:s.n+1], s.pcs[:s.n])
		copy(s.taken[1:s.n+1], s.taken[:s.n])
		copy(s.seqs[1:s.n+1], s.seqs[:s.n])
		s.n++
	default:
		copy(s.pcs[1:], s.pcs[:s.n-1])
		copy(s.taken[1:], s.taken[:s.n-1])
		copy(s.seqs[1:], s.seqs[:s.n-1])
	}
	s.pcs[0] = pc
	s.taken[0] = taken
	s.seqs[0] = s.seq
}

func (s *refStack) Len() int { return s.n }

func (s *refStack) At(i int) Entry {
	if i < 0 || i >= s.n {
		panic("rs: At index out of range")
	}
	return Entry{PC: uint64(s.pcs[i]), Taken: s.taken[i], Dist: s.dist(s.seqs[i])}
}

// SaveState writes the reference in the snapshot layout Stack uses:
// position counter, then the entries, most recent first, each with the
// position counter at its push.
func (s *refStack) SaveState(e *state.Enc) {
	e.U64(s.seq)
	e.U32(uint32(s.n))
	for i := 0; i < s.n; i++ {
		e.U64(uint64(s.pcs[i]))
		e.Bool(s.taken[i])
		e.U64(s.seqs[i])
	}
}

func (s *refStack) dist(entrySeq uint64) uint64 {
	d := s.seq - entrySeq
	if d > s.maxDist {
		return s.maxDist
	}
	return d
}

// refSegmented is the pre-overhaul Segmented: per-segment parallel
// slices with scan-and-shift inserts and slot-walk appends.
type refSegmented struct {
	bounds  []int
	segSize int
	segs    []refSegment
	ring    *history.Ring
	seq     uint64
}

type refSegment struct {
	pcs   []uint32
	taken []bool
	seqs  []uint64
	n     int
}

func newRefSegmented(bounds []int, segSize int) *refSegmented {
	cap := 1
	for cap < bounds[len(bounds)-1]+1 {
		cap <<= 1
	}
	s := &refSegmented{
		bounds:  append([]int(nil), bounds...),
		segSize: segSize,
		segs:    make([]refSegment, len(bounds)-1),
		ring:    history.NewRing(cap),
	}
	for i := range s.segs {
		s.segs[i] = refSegment{
			pcs:   make([]uint32, segSize),
			taken: make([]bool, segSize),
			seqs:  make([]uint64, segSize),
		}
	}
	return s
}

func (s *refSegmented) Commit(e history.Entry) {
	s.seq++
	s.ring.Push(e)
	for i := range s.segs {
		start := uint64(s.bounds[i])
		end := uint64(s.bounds[i+1])
		seg := &s.segs[i]
		for seg.n > 0 && s.seq-seg.seqs[seg.n-1] >= end {
			seg.n--
		}
		if s.seq < start {
			continue
		}
		arriving, ok := s.ring.At(int(start))
		if !ok || !arriving.NonBiased {
			continue
		}
		seg.insert(arriving.HashedPC, arriving.Taken, s.seq-start)
	}
}

func (g *refSegment) insert(pc uint32, taken bool, seq uint64) {
	hit := -1
	for i := 0; i < g.n; i++ {
		if g.pcs[i] == pc {
			hit = i
			break
		}
	}
	switch {
	case hit >= 0:
		copy(g.pcs[1:hit+1], g.pcs[:hit])
		copy(g.taken[1:hit+1], g.taken[:hit])
		copy(g.seqs[1:hit+1], g.seqs[:hit])
	case g.n < len(g.pcs):
		copy(g.pcs[1:g.n+1], g.pcs[:g.n])
		copy(g.taken[1:g.n+1], g.taken[:g.n])
		copy(g.seqs[1:g.n+1], g.seqs[:g.n])
		g.n++
	default:
		copy(g.pcs[1:], g.pcs[:g.n-1])
		copy(g.taken[1:], g.taken[:g.n-1])
		copy(g.seqs[1:], g.seqs[:g.n-1])
	}
	g.pcs[0] = pc
	g.taken[0] = taken
	g.seqs[0] = seq
}

func (s *refSegmented) SegmentEntry(i, j int) (Entry, bool) {
	seg := &s.segs[i]
	if j < 0 || j >= seg.n {
		return Entry{}, false
	}
	return Entry{
		PC:    uint64(seg.pcs[j]),
		Taken: seg.taken[j],
		Dist:  s.seq - seg.seqs[j],
	}, true
}

func (s *refSegmented) AppendBFGHR(dst []bool) []bool {
	for i := range s.segs {
		seg := &s.segs[i]
		for j := 0; j < s.segSize; j++ {
			dst = append(dst, j < seg.n && seg.taken[j])
		}
	}
	return dst
}

func (s *refSegmented) AppendBFPCs(dst []bool) []bool {
	for i := range s.segs {
		seg := &s.segs[i]
		for j := 0; j < s.segSize; j++ {
			dst = append(dst, j < seg.n && seg.pcs[j]&1 != 0)
		}
	}
	return dst
}

// SaveState writes the reference in the snapshot layout Segmented uses:
// position counter, ring, then each segment's entries, most recent
// first, with the position counter at which each entered its segment.
func (s *refSegmented) SaveState(e *state.Enc) {
	e.U64(s.seq)
	s.ring.SaveState(e)
	e.U32(uint32(len(s.segs)))
	for i := range s.segs {
		g := &s.segs[i]
		e.U32(uint32(g.n))
		for j := 0; j < g.n; j++ {
			e.U64(uint64(g.pcs[j]))
			e.Bool(g.taken[j])
			e.U64(g.seqs[j])
		}
	}
}

// words returns segment i's packed outcome and address bits.
func (s *refSegmented) words(i int) (taken, pcs uint64) {
	g := &s.segs[i]
	for j := 0; j < g.n; j++ {
		if g.taken[j] {
			taken |= 1 << uint(j)
		}
		pcs |= uint64(g.pcs[j]&1) << uint(j)
	}
	return taken, pcs
}
