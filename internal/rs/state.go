// Snapshot support (bfbp.state.v1). A cam serialises its live entries
// in recency order and rebuilds by replaying them oldest-first, so the
// restored order array iterates identically to the saved one; slot
// numbering and hash-index layout are unobservable implementation
// detail and are free to differ. A segmented stack is a function of its
// ring, and its load checks the saved segments against that rebuild.
//
// Every loader here decodes into a fresh receiver that nothing reads
// yet and records failures on the decoder; the caller installs the
// receiver only after Snapshot.Err returns nil.

package rs

import (
	"math"

	"bfbp/internal/state"
)

// save appends the cam's live entries, most recent first.
func (c *cam) save(e *state.Enc) {
	e.U32(uint32(c.n))
	for k := 0; k < c.n; k++ {
		s := c.order[k]
		e.U64(c.pc[s])
		e.Bool(c.taken[s])
		e.U64(c.seq[s])
	}
}

// load rebuilds the fresh cam c from a saved entry list.
func (c *cam) load(d *state.Dec) {
	n := int(d.U32())
	if n > len(c.pc) {
		d.Corruptf("cam holds %d slots, snapshot has %d entries", len(c.pc), n)
		return
	}
	pcs := make([]uint64, n)
	taken := make([]bool, n)
	seqs := make([]uint64, n)
	for i := 0; i < n; i++ {
		pcs[i], taken[i], seqs[i] = d.U64(), d.Bool(), d.U64()
	}
	for i := n - 1; i >= 0; i-- {
		if c.lookup(pcs[i]) != camNil {
			d.Corruptf("duplicate cam pc %#x", pcs[i])
			return
		}
		c.push(pcs[i], taken[i], seqs[i])
	}
}

// SaveState appends the stack's position counter and live entries to a
// snapshot section. Depth and distance width are configuration.
func (s *Stack) SaveState(e *state.Enc) {
	e.U64(s.seq)
	s.c.save(e)
}

// LoadState decodes a stack saved by SaveState into s, a fresh stack of
// the same depth.
func (s *Stack) LoadState(d *state.Dec) {
	s.seq = d.U64()
	s.c.load(d)
}

// save appends the segment's live entries, most recent first — the same
// byte stream the original cam-backed segment produced.
func (g *segment) save(e *state.Enc) {
	e.U32(uint32(g.n))
	for j := 0; j < g.n; j++ {
		e.U64(uint64(g.pcs[j]))
		e.Bool(g.takenBits>>uint(j)&1 != 0)
		e.U64(g.seqs[j])
	}
}

// load decodes the fresh segment g from a saved entry list, repacking
// the outcome/address words directly.
func (g *segment) load(d *state.Dec) {
	n := int(d.U32())
	if n > len(g.pcs) {
		d.Corruptf("segment holds %d slots, snapshot has %d entries", len(g.pcs), n)
		return
	}
	g.n = n
	for j := 0; j < n; j++ {
		pc := d.U64()
		if pc > math.MaxUint32 {
			d.Corruptf("segment pc %#x exceeds 32 bits", pc)
		}
		g.pcs[j] = uint32(pc)
		if d.Bool() {
			g.takenBits |= 1 << uint(j)
		}
		g.seqs[j] = d.U64()
		g.pcBits |= (pc & 1) << uint(j)
	}
}

// equal reports whether two segments hold the same entries.
func (g *segment) equal(o *segment) bool {
	if g.n != o.n || g.takenBits != o.takenBits || g.pcBits != o.pcBits {
		return false
	}
	for j := 0; j < g.n; j++ {
		if g.pcs[j] != o.pcs[j] || g.seqs[j] != o.seqs[j] {
			return false
		}
	}
	return true
}

// SaveState appends the segmented stack's position counter, unfiltered
// ring, and every segment's entries.
func (s *Segmented) SaveState(e *state.Enc) {
	e.U64(s.seq)
	s.ring.SaveState(e)
	e.U32(uint32(len(s.segs)))
	for i := range s.segs {
		s.segs[i].save(e)
	}
}

// LoadState decodes a segmented stack saved by SaveState into s, a
// fresh one built with the same bounds and segment size. The segments
// are a function of the ring: replaying its newest min(seq, deepest
// bound) branches into fresh stacks, with the position counter starting
// that many commits back, reproduces them. A ring whose fill is not
// min(seq, capacity), or a segment that differs from the replay, is
// corrupt.
func (s *Segmented) LoadState(d *state.Dec) {
	s.seq = d.U64()
	s.ring.LoadState(d)
	if n := int(d.U32()); n != len(s.segs) {
		d.Corruptf("segmented stack has %d segments, snapshot %d", len(s.segs), n)
		return
	}
	for i := range s.segs {
		s.segs[i].load(d)
	}
	if fill := min(s.seq, uint64(s.ring.Cap())); uint64(s.ring.Len()) != fill {
		d.Corruptf("ring holds %d branches after %d commits", s.ring.Len(), s.seq)
		return
	}
	ref := s.rebuild()
	for i := range s.segs {
		if !s.segs[i].equal(&ref.segs[i]) {
			d.Corruptf("segment %d differs from its rebuild from the ring", i)
			return
		}
	}
}

// rebuild replays the ring's newest branches into fresh stacks.
func (s *Segmented) rebuild() *Segmented {
	ref := NewSegmented(s.bounds, s.segSize)
	k := min(s.seq, uint64(s.bounds[len(s.bounds)-1]))
	ref.seq = s.seq - k
	for depth := int(k); depth >= 1; depth-- {
		e, _ := s.ring.At(depth)
		ref.Commit(e)
	}
	return ref
}
