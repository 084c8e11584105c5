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
// variant — "none" for nil, "fsm2", or "oracle".
func KindOf(c Classifier) string {
	switch c.(type) {
	case nil:
		return "none"
	case *Table:
		return "fsm2"
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

// LoadClassifier decodes classifier state saved by SaveClassifier for
// c, which must be the same kind and geometry, and returns the install
// that writes it into c. Failures are recorded on d.
func LoadClassifier(d *state.Dec, c Classifier) (install func()) {
	if kind := d.String(); kind != KindOf(c) {
		d.Corruptf("snapshot classifier %q, instance %q", kind, KindOf(c))
		return func() {}
	}
	switch t := c.(type) {
	case *Table:
		raw := d.Bytes(len(t.states))
		for _, b := range raw {
			if State(b) > NonBiased {
				d.Corruptf("BST state byte %#x", b)
				break
			}
		}
		return func() {
			for i, b := range raw {
				t.states[i] = State(b)
			}
		}
	case *Oracle:
		// Each entry is a u64 PC and a u8 state: bound the count by the
		// payload before sizing the map from it.
		n := int(d.U32())
		if n > d.Remaining()/9 {
			d.Corruptf("oracle claims %d entries in %d bytes", n, d.Remaining())
			return func() {}
		}
		class := make(map[uint64]State, n)
		var prev uint64
		for i := 0; i < n; i++ {
			pc, st := d.U64(), State(d.U8())
			if st > NonBiased || (i > 0 && pc <= prev) {
				d.Corruptf("oracle entry %d (pc %#x, state %#x) out of order or range", i, pc, uint8(st))
			}
			class[pc], prev = st, pc
		}
		return func() { t.class = class }
	}
	if c != nil {
		d.Corruptf("cannot restore classifier %T", c)
	}
	return func() {}
}
