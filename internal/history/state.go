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
	// The recent words and the slots not yet pushed follow from the
	// pushed entries. Fold windows and the BF-GHR read them directly,
	// so a snapshot whose copies disagree is corrupt.
	n := len(pcs)
	if size < n && head != size-1 {
		return fmt.Errorf("%w: ring head %d does not follow size %d", state.ErrCorrupt, head, size)
	}
	var rt, rp uint64
	for d := min(size, 64); d >= 1; d-- {
		pos := (head - (d - 1)) & (n - 1)
		rt, rp = rt<<1, rp<<1|uint64(pcs[pos]&1)
		if taken[pos] {
			rt |= 1
		}
	}
	known := ^uint64(0) // before the ring wraps, older depths were never pushed
	if size == n {
		known = lowMask(size)
	}
	if ((recentTaken^rt)|(recentPC^rp))&known != 0 {
		return fmt.Errorf("%w: ring recent words disagree with its slots", state.ErrCorrupt)
	}
	for i := size; i < n; i++ {
		if pcs[i] != 0 || taken[i] || nonBiased[i] {
			return fmt.Errorf("%w: ring slot %d is set but was never pushed", state.ErrCorrupt, i)
		}
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

// SaveState appends the fold set's ring, its register count and every
// register.
func (s *FoldSet) SaveState(e *state.Enc) {
	s.ring.SaveState(e)
	e.U32(uint32(len(s.vals)))
	for _, v := range s.vals {
		e.U64(v)
	}
}

// LoadState restores a fold set saved by SaveState into one built with
// the same registers and capacity. Every register must equal its
// rebuild from the restored ring (which also keeps it within its
// width); the ring and every register are decoded and checked before
// any is committed, so a failed load changes nothing.
func (s *FoldSet) LoadState(d *state.Dec) error {
	ring := NewRing(s.ring.Cap())
	if err := ring.LoadState(d); err != nil {
		return err
	}
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(s.vals) {
		return fmt.Errorf("%w: fold set has %d registers, snapshot %d", state.ErrCorrupt, len(s.vals), n)
	}
	want := make([]uint64, n)
	s.refold(ring, want)
	for i, w := range want {
		v := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if v != w {
			return fmt.Errorf("%w: fold register %d is %#x, its ring gives %#x", state.ErrCorrupt, i, v, w)
		}
	}
	s.Restore(ring)
	return nil
}
