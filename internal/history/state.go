// Snapshot support (bfbp.state.v1): the history structures serialise
// only their mutable registers — geometry (capacities, widths, lengths,
// masks) is configuration that constructors rebuild, and load validates
// the snapshot against it.

package history

import "bfbp/internal/state"

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

// LoadState decodes ring state saved by SaveState into r, a fresh ring
// of the same capacity that nothing reads yet. Failures are recorded on
// d; the caller installs r only after Snapshot.Err returns nil.
func (r *Ring) LoadState(d *state.Dec) {
	n := len(r.pcs)
	head, size := d.Int(), d.Int()
	recentTaken, recentPC := d.U64(), d.U64()
	pcs := d.U32s(n)
	taken, nonBiased := d.Bools(n), d.Bools(n)
	if head < -1 || head >= n || size < 0 || size > n {
		d.Corruptf("ring head %d / size %d out of range", head, size)
		return
	}
	// The recent words and the slots not yet pushed follow from the
	// pushed entries. Fold windows and the BF-GHR read them directly,
	// so a snapshot whose copies disagree is corrupt.
	if size < n && head != size-1 {
		d.Corruptf("ring head %d does not follow size %d", head, size)
	}
	var rt, rp uint64
	for k := min(size, 64); k >= 1; k-- {
		pos := (head - (k - 1)) & (n - 1)
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
		d.Corruptf("ring recent words disagree with its slots")
	}
	for i := size; i < n; i++ {
		if pcs[i] != 0 || taken[i] || nonBiased[i] {
			d.Corruptf("ring slot %d is set but was never pushed", i)
		}
	}
	r.head, r.size = head, size
	r.recentTaken, r.recentPC = recentTaken, recentPC
	r.pcs = pcs
	for i := range r.pcs {
		setSlotBit(r.takenW, i, taken[i])
		setSlotBit(r.nbW, i, nonBiased[i])
	}
}

// SaveState appends the path register's packed bits.
func (p *Path) SaveState(e *state.Enc) { e.U64(p.bits) }

// LoadState decodes a path register into p, a fresh one, rejecting bits
// outside its width.
func (p *Path) LoadState(d *state.Dec) {
	p.bits = d.U64()
	if p.bits&^p.mask != 0 {
		d.Corruptf("path value %#x exceeds width %d", p.bits, p.width)
	}
}

// SaveState appends the fold set's ring, its register count and every
// register.
func (s *FoldSet) SaveState(e *state.Enc) {
	s.ring.SaveState(e)
	e.U64s(s.vals)
}

// LoadState decodes a fold set saved by SaveState into s, a fresh one
// built with the same registers and capacity. Every saved register must
// equal its rebuild from the restored ring, which also keeps it within
// its width.
func (s *FoldSet) LoadState(d *state.Dec) {
	s.ring.LoadState(d)
	saved := d.U64s(len(s.vals))
	s.Restore(s.ring)
	for i, v := range saved {
		if v != s.vals[i] {
			d.Corruptf("fold register %d is %#x, its ring gives %#x", i, v, s.vals[i])
			return
		}
	}
}
