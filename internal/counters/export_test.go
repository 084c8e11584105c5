package counters

// IsWeak reports whether the counter is in one of its two central states,
// 0 and -1, where its prediction carries the least confidence.
func (c *Signed) IsWeak() bool { return c.v == 0 || c.v == -1 }

// Dec decrements with saturation.
func (c *Unsigned) Dec() {
	if c.v > 0 {
		c.v--
	}
}
