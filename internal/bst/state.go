// Snapshot support (bfbp.state.v1): classifier state is saved behind a
// concrete-kind tag so a snapshot can only load into the classifier
// variant that produced it. The kind tag doubles as the classifier's
// contribution to predictor config hashes.

package bst

import (
	"fmt"
	"sort"

	"bfbp/internal/state"
)

// KindOf returns a short stable tag naming c's concrete classifier
// variant — "none" for nil, "fsm2", "prob3", or "oracle".
func KindOf(c Classifier) string {
	switch c.(type) {
	case nil:
		return "none"
	case *Table:
		return "fsm2"
	case *ProbTable:
		return "prob3"
	case *Oracle:
		return "oracle"
	default:
		return fmt.Sprintf("%T", c)
	}
}

// SaveClassifier appends c's mutable state, tagged with its kind.
func SaveClassifier(e *state.Enc, c Classifier) error {
	e.String(KindOf(c))
	switch t := c.(type) {
	case nil:
	case *Table:
		raw := make([]byte, len(t.states))
		for i, s := range t.states {
			raw[i] = byte(s)
		}
		e.Bytes(raw)
	case *ProbTable:
		e.Bools(t.seen)
		e.Bools(t.dir)
		vals := make([]uint32, len(t.conf))
		for i := range t.conf {
			vals[i] = t.conf[i].Raw()
		}
		e.U32s(vals)
		// Every counter in the bank shares one generator: save its stream
		// position once.
		e.U64(t.conf[0].RNG().State())
	case *Oracle:
		pcs := make([]uint64, 0, len(t.class))
		for pc := range t.class {
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		e.U32(uint32(len(pcs)))
		for _, pc := range pcs {
			e.U64(pc)
			e.U8(uint8(t.class[pc]))
		}
	default:
		return fmt.Errorf("bst: cannot snapshot classifier %T", c)
	}
	return nil
}

// LoadClassifier restores classifier state saved by SaveClassifier into
// c, which must be the same kind and geometry. It validates the whole
// payload before writing, so a failed load leaves c untouched.
func LoadClassifier(d *state.Dec, c Classifier) error {
	kind := d.String()
	if err := d.Err(); err != nil {
		return err
	}
	if kind != KindOf(c) {
		return fmt.Errorf("%w: snapshot classifier %q, instance %q", state.ErrConfigMismatch, kind, KindOf(c))
	}
	switch t := c.(type) {
	case nil:
	case *Table:
		raw := d.Bytes()
		if err := d.Err(); err != nil {
			return err
		}
		if len(raw) != len(t.states) {
			return fmt.Errorf("%w: BST has %d entries, snapshot %d", state.ErrCorrupt, len(t.states), len(raw))
		}
		for _, b := range raw {
			if State(b) > NonBiased {
				return fmt.Errorf("%w: BST state byte %#x", state.ErrCorrupt, b)
			}
		}
		for i, b := range raw {
			t.states[i] = State(b)
		}
	case *ProbTable:
		seen := d.Bools()
		dir := d.Bools()
		vals := d.U32s()
		rngState := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if len(seen) != len(t.seen) || len(dir) != len(t.dir) || len(vals) != len(t.conf) {
			return fmt.Errorf("%w: probabilistic BST has %d entries, snapshot %d", state.ErrCorrupt, len(t.seen), len(seen))
		}
		copy(t.seen, seen)
		copy(t.dir, dir)
		for i := range t.conf {
			t.conf[i].SetRaw(vals[i])
		}
		t.conf[0].RNG().SetState(rngState)
	case *Oracle:
		n := int(d.U32())
		if err := d.Err(); err != nil {
			return err
		}
		// Each entry is a u64 PC and a u8 state: bound the count by the
		// payload before sizing the map from it.
		if n > d.Remaining()/9 {
			return fmt.Errorf("%w: oracle claims %d entries in %d bytes", state.ErrCorrupt, n, d.Remaining())
		}
		class := make(map[uint64]State, n)
		for i := 0; i < n; i++ {
			pc := d.U64()
			st := State(d.U8())
			if st > NonBiased {
				return fmt.Errorf("%w: oracle state byte %#x", state.ErrCorrupt, uint8(st))
			}
			class[pc] = st
		}
		if err := d.Err(); err != nil {
			return err
		}
		t.class = class
	default:
		return fmt.Errorf("bst: cannot snapshot classifier %T", c)
	}
	return d.Err()
}
