package counters

import (
	"bfbp/internal/rng"
	"bfbp/internal/state"
)

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

// SaveProbabilistic appends a probabilistic counter bank's values.
// Width, growth, and RNG wiring are configuration that the owning
// table's constructor rebuilds.
func SaveProbabilistic(e *state.Enc, bank []Probabilistic) {
	vals := make([]uint32, len(bank))
	for i := range bank {
		vals[i] = bank[i].v
	}
	e.U32s(vals)
}

// LoadProbabilistic decodes a bank saved by SaveProbabilistic, checking
// every value against its counter's maximum, and returns the install.
func LoadProbabilistic(d *state.Dec, bank []Probabilistic) (install func()) {
	vals := d.U32s(len(bank))
	for i, v := range vals {
		if v > bank[i].max {
			d.Corruptf("counter %d is %d, above %d", i, v, bank[i].max)
			break
		}
	}
	return func() {
		for i := range bank {
			bank[i].v = vals[i]
		}
	}
}

// RNG exposes the generator this counter draws from. Counter banks share
// one generator, so snapshot writers capture its state once per bank.
func (c *Probabilistic) RNG() *rng.SplitMix64 { return c.rng }
