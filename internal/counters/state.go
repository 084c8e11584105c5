package counters

import (
	"fmt"

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

// DecodeSigned reads a signed counter bank saved by SaveSigned and
// checks that it holds n counters. It writes nothing, so a loader can
// decode every section before committing any with SetSigned.
func DecodeSigned(d *state.Dec, n int) ([]int32, error) {
	vals := d.I32s()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(vals) != n {
		return nil, fmt.Errorf("%w: counter bank has %d entries, snapshot %d", state.ErrCorrupt, n, len(vals))
	}
	return vals, nil
}

// SetSigned commits values read by DecodeSigned into bank. Values
// saturate into each counter's range.
func SetSigned(bank []Signed, vals []int32) {
	for i := range bank {
		bank[i].Set(vals[i])
	}
}

// Raw returns the probabilistic counter's current value for snapshot
// serialisation. Width, growth, and RNG wiring are configuration that
// the owning table's constructor rebuilds.
func (c *Probabilistic) Raw() uint32 { return c.v }

// SetRaw restores a snapshotted counter value, saturating at the
// counter's maximum so corrupt input cannot create unreachable states.
func (c *Probabilistic) SetRaw(v uint32) {
	if v > c.max {
		v = c.max
	}
	c.v = v
}

// RNG exposes the generator this counter draws from. Counter banks share
// one generator, so snapshot writers capture its state once per bank.
func (c *Probabilistic) RNG() *rng.SplitMix64 { return c.rng }
