package counters

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"bfbp/internal/state"
)

// refSigned is the reference model of one signed counter, carrying its
// own bounds and clamping in int32.
type refSigned struct {
	v, min, max int32
}

func newRefSigned(width int) refSigned {
	return refSigned{min: -(1 << (width - 1)), max: 1<<(width-1) - 1}
}

func (c *refSigned) set(v int32) { c.v = min(max(v, c.min), c.max) }

func (c *refSigned) update(taken bool) {
	if taken && c.v < c.max {
		c.v++
	} else if !taken && c.v > c.min {
		c.v--
	}
}

// refUnsigned is the reference model of one unsigned counter.
type refUnsigned struct {
	v, max uint32
}

func (c *refUnsigned) set(v uint32) { c.v = min(v, c.max) }

func (c *refUnsigned) inc() {
	if c.v < c.max {
		c.v++
	}
}

func TestSignedSaturation(t *testing.T) {
	b := NewSigned(1, 3)
	if b.Min() != -4 || b.Max() != 3 {
		t.Fatalf("3-bit signed bounds = [%d,%d], want [-4,3]", b.Min(), b.Max())
	}
	for i := 0; i < 20; i++ {
		b.Update(0, true)
	}
	if b.Value(0) != 3 {
		t.Fatalf("saturated high value = %d, want 3", b.Value(0))
	}
	for i := 0; i < 20; i++ {
		b.Update(0, false)
	}
	if b.Value(0) != -4 {
		t.Fatalf("saturated low value = %d, want -4", b.Value(0))
	}
}

func TestSignedInitClamped(t *testing.T) {
	b := NewSigned(2, 2)
	if b.Value(0) != 0 || b.Value(1) != 0 {
		t.Fatalf("new bank holds %d, %d, want 0, 0", b.Value(0), b.Value(1))
	}
	b.Set(0, 100)
	b.Set(1, -100)
	if b.Value(0) != 1 || b.Value(1) != -2 {
		t.Fatalf("2-bit Set(100), Set(-100) clamp to %d, %d, want 1, -2", b.Value(0), b.Value(1))
	}
}

func TestSignedTakenConvention(t *testing.T) {
	b := NewSigned(1, 3)
	if !b.Taken(0) {
		t.Fatal("value 0 should predict taken")
	}
	b.Update(0, false)
	if b.Taken(0) {
		t.Fatal("value -1 should predict not taken")
	}
}

// The two central states, 0 and -1, are weak: one contrary outcome
// flips their prediction. One step further out, it does not.
func TestSignedWeakStates(t *testing.T) {
	b := NewSigned(1, 3)
	for _, tc := range []struct {
		v    int32
		flip bool
	}{{0, true}, {-1, true}, {1, false}, {-2, false}} {
		b.Set(0, tc.v)
		before := b.Taken(0)
		b.Update(0, !before)
		if flipped := b.Taken(0) != before; flipped != tc.flip {
			t.Errorf("value %d: one contrary update flipped = %v, want %v", tc.v, flipped, tc.flip)
		}
	}
}

func TestSignedUpdateDirection(t *testing.T) {
	b := NewSigned(1, 4)
	b.Update(0, true)
	if b.Value(0) != 1 {
		t.Fatalf("after Update(true) value = %d, want 1", b.Value(0))
	}
	b.Update(0, false)
	b.Update(0, false)
	if b.Value(0) != -1 {
		t.Fatalf("after two Update(false) value = %d, want -1", b.Value(0))
	}
}

func TestSignedWidthPanics(t *testing.T) {
	for _, w := range []int{0, 9, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSigned width %d did not panic", w)
				}
			}()
			NewSigned(1, w)
		}()
	}
}

func TestUnsignedSaturation(t *testing.T) {
	b := NewUnsigned(1, 2)
	for i := 0; i < 10; i++ {
		b.Inc(0)
	}
	if b.Value(0) != 3 || !b.IsMax(0) {
		t.Fatalf("2-bit unsigned saturates at %d, want 3", b.Value(0))
	}
}

func TestUnsignedSetAndReset(t *testing.T) {
	b := NewUnsigned(1, 3)
	b.Set(0, 100)
	if b.Value(0) != 7 {
		t.Fatalf("Set(100) on 3-bit = %d, want 7", b.Value(0))
	}
	b.Set(0, 0)
	if b.Value(0) != 0 {
		t.Fatalf("reset = %d, want 0", b.Value(0))
	}
}

func TestUnsignedFullWidth(t *testing.T) {
	b := NewUnsigned(1, 16)
	b.Set(0, 1<<16-1)
	if !b.IsMax(0) {
		t.Fatal("16-bit counter set to max should be IsMax")
	}
	b.Inc(0)
	if b.Value(0) != 1<<16-1 {
		t.Fatal("16-bit counter overflowed past max")
	}
	for _, w := range []int{0, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewUnsigned width %d did not panic", w)
				}
			}()
			NewUnsigned(1, w)
		}()
	}
}

// Property: a signed counter never leaves its saturation range under any
// sequence of updates, and its value always moves by at most 1 per step.
func TestSignedBoundsProperty(t *testing.T) {
	f := func(width uint8, ops []bool) bool {
		b := NewSigned(1, int(width%8)+1)
		prev := b.Value(0)
		for _, taken := range ops {
			b.Update(0, taken)
			v := b.Value(0)
			if v < b.Min() || v > b.Max() {
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

// Property: unsigned counters stay within [0, max] under any mix of
// increments and resets.
func TestUnsignedBoundsProperty(t *testing.T) {
	f := func(width uint8, ops []bool) bool {
		b := NewUnsigned(1, int(width%16)+1)
		for _, up := range ops {
			if up {
				b.Inc(0)
			} else {
				b.Set(0, 0)
			}
			if b.Value(0) > b.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSignedMatchesReference drives a bank of every width 1..8 and one
// reference counter per entry with the same random Update and Set
// sequence: values, directions and the census must agree after every
// step.
func TestSignedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := 1; width <= 8; width++ {
		n := 1 + rng.Intn(16)
		b := NewSigned(n, width)
		ref := make([]refSigned, n)
		for i := range ref {
			ref[i] = newRefSigned(width)
		}
		if b.Min() != ref[0].min || b.Max() != ref[0].max {
			t.Fatalf("width %d: bounds [%d,%d], want [%d,%d]", width, b.Min(), b.Max(), ref[0].min, ref[0].max)
		}
		for step := 0; step < 2000; step++ {
			i := rng.Intn(n)
			if rng.Intn(8) == 0 {
				v := int32(rng.Intn(600) - 300)
				b.Set(i, v)
				ref[i].set(v)
			} else {
				taken := rng.Intn(2) == 0
				b.Update(i, taken)
				ref[i].update(taken)
			}
			live, sat := 0, 0
			for j, c := range ref {
				if b.Value(j) != c.v || b.Taken(j) != (c.v >= 0) {
					t.Fatalf("width %d step %d: counter %d = %d, want %d", width, step, j, b.Value(j), c.v)
				}
				if c.v != 0 {
					live++
				}
				if c.v == c.min || c.v == c.max {
					sat++
				}
			}
			if gl, gs := b.Census(); gl != live || gs != sat {
				t.Fatalf("width %d step %d: census (%d, %d), want (%d, %d)", width, step, gl, gs, live, sat)
			}
		}
	}
}

// TestUnsignedMatchesReference is TestSignedMatchesReference for the
// unsigned banks of every width 1..16 under random Inc and Set steps.
func TestUnsignedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for width := 1; width <= 16; width++ {
		n := 1 + rng.Intn(16)
		b := NewUnsigned(n, width)
		ref := make([]refUnsigned, n)
		for i := range ref {
			ref[i].max = 1<<width - 1
		}
		if b.Max() != ref[0].max {
			t.Fatalf("width %d: max %d, want %d", width, b.Max(), ref[0].max)
		}
		for step := 0; step < 2000; step++ {
			i := rng.Intn(n)
			if rng.Intn(4) == 0 {
				v := uint32(rng.Intn(1 << 17))
				if rng.Intn(2) == 0 {
					v %= ref[i].max + 2
				}
				b.Set(i, v)
				ref[i].set(v)
			} else {
				b.Inc(i)
				ref[i].inc()
			}
			for j, c := range ref {
				if b.Value(j) != c.v || b.IsMax(j) != (c.v == c.max) {
					t.Fatalf("width %d step %d: counter %d = %d, want %d", width, step, j, b.Value(j), c.v)
				}
			}
		}
	}
}

// TestSignedSnapshotLayout checks that Save writes the state.Enc.I32s
// layout, that Load round-trips it, and that Load rejects a value one
// past either bound without touching the bank.
func TestSignedSnapshotLayout(t *testing.T) {
	b := NewSigned(5, 3)
	for i, v := range []int32{-4, -1, 0, 2, 3} {
		b.Set(i, v)
	}
	s := state.New("bank", 1)
	b.Save(s.Section("bank"))
	want := state.New("bank", 1)
	want.Section("bank").I32s([]int32{-4, -1, 0, 2, 3})
	if !bytes.Equal(s.Section("bank").Data(), want.Section("bank").Data()) {
		t.Fatalf("Save wrote % x, want the I32s layout % x", s.Section("bank").Data(), want.Section("bank").Data())
	}
	load := func(vals []int32) (Signed, error) {
		src := state.New("bank", 1)
		src.Section("bank").I32s(vals)
		var buf bytes.Buffer
		if _, err := src.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := state.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got := NewSigned(5, 3)
		install := got.Load(snap.Dec("bank"))
		if err := snap.Err(); err != nil {
			return got, err
		}
		install()
		return got, nil
	}
	got, err := load([]int32{-4, -1, 0, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		if got.Value(i) != b.Value(i) {
			t.Fatalf("loaded counter %d = %d, want %d", i, got.Value(i), b.Value(i))
		}
	}
	for _, bad := range []int32{4, -5} {
		got, err := load([]int32{0, 0, bad, 0, 0})
		if !errors.Is(err, state.ErrCorrupt) {
			t.Fatalf("value %d: got %v, want ErrCorrupt", bad, err)
		}
		if live, _ := got.Census(); live != 0 {
			t.Fatalf("value %d: a failed load changed the bank", bad)
		}
	}
}
