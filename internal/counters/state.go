package counters

import "bfbp/internal/state"

// Save appends the bank to a snapshot section as a u32 count and one
// little-endian i32 per counter, the layout the state.Enc.I32s writer
// gives. The width is configuration rebuilt by the constructor.
func (b *Signed) Save(e *state.Enc) {
	e.U32(uint32(len(b.v)))
	for _, v := range b.v {
		e.I32(int32(v))
	}
}

// Load decodes a bank saved by Save, checking every value against the
// bank's range, and returns the install.
func (b *Signed) Load(d *state.Dec) (install func()) {
	vals := d.I32s(len(b.v))
	for i, v := range vals {
		if v < int32(b.min) || v > int32(b.max) {
			d.Corruptf("counter %d is %d, outside [%d, %d]", i, v, b.min, b.max)
			break
		}
	}
	return func() {
		for i, v := range vals {
			b.v[i] = int8(v)
		}
	}
}
