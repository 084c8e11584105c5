// Snapshot support (bfbp.state.v1): the history structures serialise
// only their mutable registers — geometry (capacities, widths, lengths,
// masks) is configuration that constructors rebuild, and load validates
// the snapshot against it.

package history

import (
	"fmt"

	"bfbp/internal/state"
)

// SaveState appends the ring's mutable state to a snapshot section.
func (r *Ring) SaveState(e *state.Enc) {
	e.Int(r.head)
	e.Int(r.size)
	e.U64(r.recentTaken)
	e.U64(r.recentPC)
	taken := make([]bool, len(r.pcs))
	nonBiased := make([]bool, len(r.pcs))
	for i := range r.pcs {
		taken[i] = slotBit(r.takenW, i)
		nonBiased[i] = slotBit(r.nbW, i)
	}
	e.U32s(r.pcs)
	e.Bools(taken)
	e.Bools(nonBiased)
}

// LoadState restores ring state saved by SaveState into a ring of the
// same capacity.
func (r *Ring) LoadState(d *state.Dec) error {
	head, size := d.Int(), d.Int()
	recentTaken, recentPC := d.U64(), d.U64()
	pcs := d.U32s()
	taken := d.Bools()
	nonBiased := d.Bools()
	if err := d.Err(); err != nil {
		return err
	}
	if len(pcs) != len(r.pcs) || len(taken) != len(r.pcs) || len(nonBiased) != len(r.pcs) {
		return fmt.Errorf("%w: ring snapshot capacity %d, instance %d", state.ErrCorrupt, len(pcs), len(r.pcs))
	}
	if head < -1 || head >= len(r.pcs) || size < 0 || size > len(r.pcs) {
		return fmt.Errorf("%w: ring head %d / size %d out of range", state.ErrCorrupt, head, size)
	}
	r.head, r.size = head, size
	r.recentTaken, r.recentPC = recentTaken, recentPC
	copy(r.pcs, pcs)
	for i := range r.pcs {
		setSlotBit(r.takenW, i, taken[i])
		setSlotBit(r.nbW, i, nonBiased[i])
	}
	return nil
}

// SaveState appends the folded register's compressed value.
func (f *Folded) SaveState(e *state.Enc) { e.U64(f.comp) }

// LoadState restores a folded register value, rejecting bits outside
// the register's width.
func (f *Folded) LoadState(d *state.Dec) error {
	c := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if c&^f.mask != 0 {
		return fmt.Errorf("%w: folded value %#x exceeds width %d", state.ErrCorrupt, c, f.width)
	}
	f.comp = c
	return nil
}

// SaveState appends the path register's packed bits.
func (p *Path) SaveState(e *state.Enc) { e.U64(p.bits) }

// LoadState restores a path register, rejecting bits outside its width.
func (p *Path) LoadState(d *state.Dec) error {
	b := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if b&^p.mask != 0 {
		return fmt.Errorf("%w: path value %#x exceeds width %d", state.ErrCorrupt, b, p.width)
	}
	p.bits = b
	return nil
}

// SaveState appends the fold set's ring and every fold register. The
// live fold values are kept in the dense vals array; sync them into the
// Folded structs so the byte format stays the per-register one.
func (s *FoldSet) SaveState(e *state.Enc) {
	s.ring.SaveState(e)
	e.U32(uint32(len(s.folds)))
	for i := range s.folds {
		s.folds[i].comp = s.vals[i]
		s.folds[i].SaveState(e)
	}
}

// LoadState restores a fold set saved by SaveState into one built with
// the same lengths, width, and capacity. The ring and every register
// are decoded before any is committed, so a failed load changes
// nothing.
func (s *FoldSet) LoadState(d *state.Dec) error {
	ring := NewRing(s.ring.Cap())
	if err := ring.LoadState(d); err != nil {
		return err
	}
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(s.folds) {
		return fmt.Errorf("%w: fold set has %d registers, snapshot %d", state.ErrCorrupt, len(s.folds), n)
	}
	vals := make([]uint64, n)
	for i := range vals {
		f := s.folds[i]
		if err := f.LoadState(d); err != nil {
			return err
		}
		vals[i] = f.comp
	}
	// Commit in place: owners may hold the ring pointer.
	*s.ring = *ring
	for i, v := range vals {
		s.folds[i].comp = v
	}
	copy(s.vals, vals)
	// The evicted-bit windows are caches over the restored ring; zeroing
	// the cursor forces a refill on the next push.
	s.wk = 0
	return nil
}
