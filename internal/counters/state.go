package counters

import "bfbp/internal/state"

// SaveSigned appends a signed counter bank's values to a snapshot
// section. Widths are configuration rebuilt by the constructor.
func SaveSigned(e *state.Enc, bank []Signed) {
	vals := make([]int32, len(bank))
	for i := range bank {
		vals[i] = bank[i].Value()
	}
	e.I32s(vals)
}

// LoadSigned decodes a bank saved by SaveSigned, checking every value
// against its counter's range, and returns the install.
func LoadSigned(d *state.Dec, bank []Signed) (install func()) {
	vals := d.I32s(len(bank))
	for i, v := range vals {
		if v < bank[i].min || v > bank[i].max {
			d.Corruptf("counter %d is %d, outside [%d, %d]", i, v, bank[i].min, bank[i].max)
			break
		}
	}
	return func() {
		for i := range bank {
			bank[i].v = vals[i]
		}
	}
}
