// Package counters implements the banks of small saturating counters
// that the table predictors index: signed prediction counters (PHTs,
// choosers, exception caches) and unsigned run-length counters. A bank
// keeps one byte or one half-word per counter and its width once, so a
// table's heap is close to the storage budget it reports.
package counters

// Signed is a bank of signed saturating counters of one bit width. A
// width-w counter saturates at [-2^(w-1), 2^(w-1)-1]. The sign provides
// the prediction: >= 0 means taken by convention (matching TAGE's 3-bit
// prediction counters where the midpoint leans taken). Every counter
// starts at 0.
type Signed struct {
	v        []int8
	min, max int8
}

// NewSigned returns a bank of n signed counters of the given bit width,
// which must be in [1, 8].
func NewSigned(n, width int) Signed {
	if width < 1 || width > 8 {
		panic("counters: signed width out of range")
	}
	return Signed{v: make([]int8, n), min: -1 << (width - 1), max: 1<<(width-1) - 1}
}

// Len returns the number of counters.
func (b *Signed) Len() int { return len(b.v) }

// Value returns counter i.
func (b *Signed) Value(i int) int32 { return int32(b.v[i]) }

// Set assigns v to counter i, saturating to the bank's range.
func (b *Signed) Set(i int, v int32) {
	b.v[i] = int8(min(max(v, int32(b.min)), int32(b.max)))
}

// Taken reports counter i's predicted direction (>= 0 means taken).
func (b *Signed) Taken(i int) bool { return b.v[i] >= 0 }

// Update moves counter i one step towards taken's direction, saturating
// at the bank's bounds.
func (b *Signed) Update(i int, taken bool) {
	v := b.v[i]
	if taken {
		if v < b.max {
			b.v[i] = v + 1
		}
	} else if v > b.min {
		b.v[i] = v - 1
	}
}

// Min and Max expose the saturation bounds.
func (b *Signed) Min() int32 { return int32(b.min) }
func (b *Signed) Max() int32 { return int32(b.max) }

// Census summarises the bank for state-probe reporting: live counts
// counters away from zero, their reset value, and saturated counts
// counters pinned at either bound.
func (b *Signed) Census() (live, saturated int) {
	for _, v := range b.v {
		if v != 0 {
			live++
		}
		if v == b.min || v == b.max {
			saturated++
		}
	}
	return
}

// Unsigned is a bank of unsigned saturating counters of one bit width,
// saturating at [0, 2^w - 1]. Every counter starts at 0.
type Unsigned struct {
	v   []uint16
	max uint16
}

// NewUnsigned returns a bank of n unsigned counters of the given bit
// width, which must be in [1, 16].
func NewUnsigned(n, width int) Unsigned {
	if width < 1 || width > 16 {
		panic("counters: unsigned width out of range")
	}
	return Unsigned{v: make([]uint16, n), max: 1<<width - 1}
}

// Value returns counter i.
func (b *Unsigned) Value(i int) uint32 { return uint32(b.v[i]) }

// Set assigns v to counter i, saturating to the bank's range.
func (b *Unsigned) Set(i int, v uint32) { b.v[i] = uint16(min(v, uint32(b.max))) }

// Inc increments counter i with saturation.
func (b *Unsigned) Inc(i int) {
	if b.v[i] < b.max {
		b.v[i]++
	}
}

// IsMax reports whether counter i is saturated high.
func (b *Unsigned) IsMax(i int) bool { return b.v[i] == b.max }

// Max exposes the saturation bound.
func (b *Unsigned) Max() uint32 { return uint32(b.max) }
