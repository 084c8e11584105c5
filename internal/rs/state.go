// Snapshot support (bfbp.state.v1). A Stack serialises its live
// entries in recency order and rebuilds by replaying them oldest-first,
// so the restored stack walks identically to the saved one. A segmented
// stack is a function of its ring: it saves the entries a walk of the
// ring finds, and its load rebuilds the stack from the ring and checks
// the saved segments against it.
//
// Every loader here decodes into a fresh receiver that nothing reads
// yet and records failures on the decoder; the caller installs the
// receiver only after Snapshot.Err returns nil.

package rs

import (
	"math"
	"slices"

	"bfbp/internal/state"
)

// SaveState appends the stack's position counter and live entries, most
// recent first, each as its address, outcome and position counter at
// its push. Depth and distance width are configuration.
func (s *Stack) SaveState(e *state.Enc) {
	e.U64(s.seq)
	e.U32(uint32(s.n))
	for i := 0; i < s.n; i++ {
		e.U64(uint64(s.pcs[i]))
		e.Bool(s.taken[i])
		e.U64(s.seqs[i])
	}
}

// LoadState decodes a stack saved by SaveState into s, a fresh stack of
// the same depth. More entries than the depth, an address wider than 32
// bits, a duplicate address, an entry pushed after the saved counter, or
// an entry newer than the one above it is corrupt.
func (s *Stack) LoadState(d *state.Dec) {
	seq := d.U64()
	n := int(d.U32())
	if n > len(s.pcs) {
		d.Corruptf("recency stack holds %d entries, snapshot has %d", len(s.pcs), n)
		return
	}
	pcs := make([]uint64, n)
	taken := make([]bool, n)
	seqs := make([]uint64, n)
	for i := range pcs {
		pcs[i], taken[i], seqs[i] = d.U64(), d.Bool(), d.U64()
	}
	for i := range pcs {
		switch {
		case pcs[i] > math.MaxUint32:
			d.Corruptf("recency stack pc %#x is wider than 32 bits", pcs[i])
			return
		case seqs[i] > seq:
			d.Corruptf("recency stack entry pushed at %d, after the counter %d", seqs[i], seq)
			return
		case i > 0 && seqs[i] > seqs[i-1]:
			d.Corruptf("recency stack entry %d is newer than the one above it", i)
			return
		}
	}
	// Replay oldest-first, each push at its own position.
	for i := n - 1; i >= 0; i-- {
		pc := uint32(pcs[i])
		if slices.Contains(s.pcs[:s.n], pc) {
			d.Corruptf("duplicate recency stack pc %#x", pc)
			return
		}
		s.seq = seqs[i]
		s.Push(pc, taken[i])
	}
	s.seq = seq
}

// SaveState appends the segmented stack's position counter, unfiltered
// ring, and every segment's entries, most recent first, each as its
// address, outcome and position counter at the moment it reached the
// segment (the counter less its depth). The entries come from walking
// the ring.
func (s *Segmented) SaveState(e *state.Enc) {
	e.U64(s.seq)
	s.ring.SaveState(e)
	e.U32(uint32(len(s.segs)))
	var buf []Entry
	for i := range s.segs {
		buf = s.walk(i, buf[:0])
		e.U32(uint32(len(buf)))
		for _, x := range buf {
			e.U64(x.PC)
			e.Bool(x.Taken)
			e.U64(s.seq - x.Dist)
		}
	}
}

// LoadState decodes a segmented stack saved by SaveState into s, a
// fresh one built with the same bounds and segment size. The stack is a
// function of the ring: replaying its newest min(seq, deepest bound)
// branches into a fresh one, with the position counter starting that
// many commits back, reproduces every record a later commit reads. A
// ring whose fill is not min(seq, capacity), or a saved segment that
// differs from the replay's, is corrupt.
func (s *Segmented) LoadState(d *state.Dec) {
	s.seq = d.U64()
	s.ring.LoadState(d)
	if n := int(d.U32()); n != len(s.segs) {
		d.Corruptf("segmented stack has %d segments, snapshot %d", len(s.segs), n)
		return
	}
	if fill := min(s.seq, uint64(s.ring.Cap())); uint64(s.ring.Len()) != fill {
		d.Corruptf("ring holds %d branches after %d commits", s.ring.Len(), s.seq)
		return
	}
	ref := s.rebuild()
	var want []Entry
	for i := range s.segs {
		want = ref.walk(i, want[:0])
		if n := int(d.U32()); n != len(want) {
			d.Corruptf("segment %d holds %d entries, its rebuild from the ring %d", i, n, len(want))
			return
		}
		for _, x := range want {
			if d.U64() != x.PC || d.Bool() != x.Taken || d.U64() != s.seq-x.Dist {
				d.Corruptf("segment %d differs from its rebuild from the ring", i)
				return
			}
		}
	}
	ref.ring = s.ring
	*s = *ref
}

// rebuild replays the ring's newest branches into a fresh stack.
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
