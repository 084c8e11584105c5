// Package counters implements the small saturating counters used by every
// predictor in this repository: signed prediction counters (bimodal, TAGE
// tagged entries, perceptron weights), unsigned confidence/useful counters,
// and the probabilistic counters that the paper advocates for the Branch
// Status Table in a production design (§IV-B1, citing Riley & Zilles).
package counters

// Signed is a signed saturating counter with a configurable bit width.
// A width-w counter saturates at [-2^(w-1), 2^(w-1)-1]. The sign provides
// the prediction: >= 0 means taken by convention (matching TAGE's 3-bit
// prediction counters where the midpoint leans taken).
type Signed struct {
	v        int32
	min, max int32
}

// NewSigned returns a signed saturating counter of the given bit width,
// initialised to init. Width must be in [1, 31].
func NewSigned(width int, init int32) Signed {
	if width < 1 || width > 31 {
		panic("counters: signed width out of range")
	}
	c := Signed{min: -(1 << (width - 1)), max: 1<<(width-1) - 1}
	c.v = clamp(init, c.min, c.max)
	return c
}

// Value returns the current counter value.
func (c *Signed) Value() int32 { return c.v }

// Set assigns v, saturating to the counter's range.
func (c *Signed) Set(v int32) { c.v = clamp(v, c.min, c.max) }

// Inc increments with saturation.
func (c *Signed) Inc() {
	if c.v < c.max {
		c.v++
	}
}

// Dec decrements with saturation.
func (c *Signed) Dec() {
	if c.v > c.min {
		c.v--
	}
}

// Update increments when taken is true and decrements otherwise.
func (c *Signed) Update(taken bool) {
	if taken {
		c.Inc()
	} else {
		c.Dec()
	}
}

// Taken reports the predicted direction (>= 0 means taken).
func (c *Signed) Taken() bool { return c.v >= 0 }

// Min and Max expose the saturation bounds.
func (c *Signed) Min() int32 { return c.min }
func (c *Signed) Max() int32 { return c.max }

// Unsigned is an unsigned saturating counter with a configurable bit width,
// saturating at [0, 2^w - 1]. Used for useful bits, confidence counters and
// ages.
type Unsigned struct {
	v   uint32
	max uint32
}

// NewUnsigned returns an unsigned saturating counter of the given bit width,
// initialised to init. Width must be in [1, 32].
func NewUnsigned(width int, init uint32) Unsigned {
	if width < 1 || width > 32 {
		panic("counters: unsigned width out of range")
	}
	var max uint32
	if width == 32 {
		max = ^uint32(0)
	} else {
		max = 1<<width - 1
	}
	c := Unsigned{max: max}
	if init > max {
		init = max
	}
	c.v = init
	return c
}

// Value returns the current counter value.
func (c *Unsigned) Value() uint32 { return c.v }

// Set assigns v, saturating to the counter's range.
func (c *Unsigned) Set(v uint32) {
	if v > c.max {
		v = c.max
	}
	c.v = v
}

// Inc increments with saturation.
func (c *Unsigned) Inc() {
	if c.v < c.max {
		c.v++
	}
}

// Reset zeroes the counter.
func (c *Unsigned) Reset() { c.v = 0 }

// IsMax reports whether the counter is saturated high.
func (c *Unsigned) IsMax() bool { return c.v == c.max }

// Max exposes the saturation bound.
func (c *Unsigned) Max() uint32 { return c.max }

// Scan summarises a signed-counter table for state-probe reporting:
// live counts counters away from zero (the reset value of every
// counter table in this repository) and saturated counts counters
// pinned at either bound.
func Scan(cs []Signed) (live, saturated int) {
	for i := range cs {
		if cs[i].v != 0 {
			live++
		}
		if cs[i].v == cs[i].min || cs[i].v == cs[i].max {
			saturated++
		}
	}
	return
}

func clamp(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
