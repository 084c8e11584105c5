package counters

import (
	"testing"
	"testing/quick"
)

func TestSignedSaturation(t *testing.T) {
	c := NewSigned(3, 0)
	if c.Min() != -4 || c.Max() != 3 {
		t.Fatalf("3-bit signed bounds = [%d,%d], want [-4,3]", c.Min(), c.Max())
	}
	for i := 0; i < 20; i++ {
		c.Inc()
	}
	if c.Value() != 3 {
		t.Fatalf("saturated high value = %d, want 3", c.Value())
	}
	for i := 0; i < 20; i++ {
		c.Dec()
	}
	if c.Value() != -4 {
		t.Fatalf("saturated low value = %d, want -4", c.Value())
	}
}

func TestSignedInitClamped(t *testing.T) {
	c := NewSigned(2, 100)
	if c.Value() != 1 {
		t.Fatalf("2-bit init 100 clamps to %d, want 1", c.Value())
	}
	c = NewSigned(2, -100)
	if c.Value() != -2 {
		t.Fatalf("2-bit init -100 clamps to %d, want -2", c.Value())
	}
}

func TestSignedTakenConvention(t *testing.T) {
	c := NewSigned(3, 0)
	if !c.Taken() {
		t.Fatal("value 0 should predict taken")
	}
	c.Dec()
	if c.Taken() {
		t.Fatal("value -1 should predict not taken")
	}
}

func TestSignedWeakStates(t *testing.T) {
	c := NewSigned(3, 0)
	if !c.IsWeak() {
		t.Fatal("0 should be weak")
	}
	c.Dec()
	if !c.IsWeak() {
		t.Fatal("-1 should be weak")
	}
	c.Dec()
	if c.IsWeak() {
		t.Fatal("-2 should not be weak")
	}
}

func TestSignedUpdateDirection(t *testing.T) {
	c := NewSigned(4, 0)
	c.Update(true)
	if c.Value() != 1 {
		t.Fatalf("after Update(true) value = %d, want 1", c.Value())
	}
	c.Update(false)
	c.Update(false)
	if c.Value() != -1 {
		t.Fatalf("after two Update(false) value = %d, want -1", c.Value())
	}
}

func TestSignedWidthPanics(t *testing.T) {
	for _, w := range []int{0, 32, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSigned(%d) did not panic", w)
				}
			}()
			NewSigned(w, 0)
		}()
	}
}

func TestUnsignedSaturation(t *testing.T) {
	c := NewUnsigned(2, 0)
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	if c.Value() != 3 || !c.IsMax() {
		t.Fatalf("2-bit unsigned saturates at %d, want 3", c.Value())
	}
	for i := 0; i < 10; i++ {
		c.Dec()
	}
	if c.Value() != 0 {
		t.Fatalf("unsigned floor = %d, want 0", c.Value())
	}
}

func TestUnsignedSetAndReset(t *testing.T) {
	c := NewUnsigned(3, 0)
	c.Set(100)
	if c.Value() != 7 {
		t.Fatalf("Set(100) on 3-bit = %d, want 7", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("Reset = %d, want 0", c.Value())
	}
}

func TestUnsignedFullWidth(t *testing.T) {
	c := NewUnsigned(32, ^uint32(0))
	if !c.IsMax() {
		t.Fatal("32-bit counter init to max should be IsMax")
	}
	c.Inc()
	if c.Value() != ^uint32(0) {
		t.Fatal("32-bit counter overflowed past max")
	}
}

// Property: a signed counter never leaves its saturation range under any
// sequence of updates, and its value always moves by at most 1 per step.
func TestSignedBoundsProperty(t *testing.T) {
	f := func(width uint8, ops []bool) bool {
		w := int(width%8) + 1
		c := NewSigned(w, 0)
		prev := c.Value()
		for _, taken := range ops {
			c.Update(taken)
			v := c.Value()
			if v < c.Min() || v > c.Max() {
				return false
			}
			if d := v - prev; d > 1 || d < -1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: unsigned counters stay within [0, max] under any op sequence.
func TestUnsignedBoundsProperty(t *testing.T) {
	f := func(width uint8, ops []bool) bool {
		w := int(width%16) + 1
		c := NewUnsigned(w, 0)
		for _, up := range ops {
			if up {
				c.Inc()
			} else {
				c.Dec()
			}
			if c.Value() > c.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
