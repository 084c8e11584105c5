package history

import (
	"testing"
	"testing/quick"

	"bfbp/internal/rng"
)

func TestRingDepthOrder(t *testing.T) {
	r := NewRing(8)
	for i := 1; i <= 5; i++ {
		r.Push(Entry{HashedPC: uint32(i)})
	}
	for d := 1; d <= 5; d++ {
		e, ok := r.At(d)
		if !ok {
			t.Fatalf("depth %d not populated", d)
		}
		if e.HashedPC != uint32(6-d) {
			t.Fatalf("depth %d = pc %d, want %d", d, e.HashedPC, 6-d)
		}
	}
	if _, ok := r.At(6); ok {
		t.Fatal("depth 6 should be empty")
	}
	if _, ok := r.At(0); ok {
		t.Fatal("depth 0 is invalid")
	}
}

func TestRingWraps(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		r.Push(Entry{HashedPC: uint32(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	for d := 1; d <= 4; d++ {
		e, _ := r.At(d)
		if e.HashedPC != uint32(11-d) {
			t.Fatalf("after wrap depth %d = %d, want %d", d, e.HashedPC, 11-d)
		}
	}
	if _, ok := r.At(5); ok {
		t.Fatal("depth past capacity should be empty")
	}
}

func TestRingCapacityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(3) did not panic")
		}
	}()
	NewRing(3)
}

// naiveFold recomputes the group-XOR fold from an explicit history window:
// bit at depth d (1 = newest) lands at position (d-1) mod width.
func naiveFold(outcomes []bool, origLen, width int) uint64 {
	var v uint64
	for d := 1; d <= origLen && d <= len(outcomes); d++ {
		if outcomes[d-1] {
			v ^= 1 << ((d - 1) % width)
		}
	}
	return v
}

func TestFoldedMatchesNaive(t *testing.T) {
	r := rng.New(77)
	for _, cfg := range []struct{ origLen, width int }{
		{5, 3}, {16, 7}, {64, 10}, {130, 11}, {1000, 12}, {7, 7}, {12, 13},
	} {
		f := NewFolded(cfg.origLen, cfg.width)
		var hist []bool // hist[0] = newest
		for step := 0; step < 3000; step++ {
			newBit := r.Bool(0.5)
			var oldBit bool
			if len(hist) >= cfg.origLen {
				oldBit = hist[cfg.origLen-1]
			}
			f.Update(newBit, oldBit)
			hist = append([]bool{newBit}, hist...)
			if len(hist) > cfg.origLen+8 {
				hist = hist[:cfg.origLen+8]
			}
			if got, want := f.Value(), naiveFold(hist, cfg.origLen, cfg.width); got != want {
				t.Fatalf("cfg %+v step %d: folded = %#x, naive = %#x", cfg, step, got, want)
			}
		}
	}
}

func TestFoldedProperty(t *testing.T) {
	f := func(seed uint64, origLen8, width8 uint8) bool {
		origLen := int(origLen8%100) + 1
		width := int(width8%16) + 1
		r := rng.New(seed)
		fd := NewFolded(origLen, width)
		var hist []bool
		for step := 0; step < 300; step++ {
			nb := r.Bool(0.5)
			var ob bool
			if len(hist) >= origLen {
				ob = hist[origLen-1]
			}
			fd.Update(nb, ob)
			hist = append([]bool{nb}, hist...)
			if fd.Value() != naiveFold(hist, origLen, width) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFoldBitsMatchesNaive(t *testing.T) {
	r := rng.New(5)
	bits := make([]bool, 200)
	for i := range bits {
		bits[i] = r.Bool(0.5)
	}
	for _, w := range []int{1, 3, 8, 13, 63} {
		if got, want := FoldBits(bits, w), naiveFold(bits, len(bits), w); got != want {
			t.Fatalf("width %d: FoldBits = %#x, naive = %#x", w, got, want)
		}
	}
}

func TestFoldSetQuantization(t *testing.T) {
	s := NewFoldSet([]int{4, 16, 64}, 8, 128)
	r := rng.New(3)
	for i := 0; i < 200; i++ {
		s.Push(Entry{Taken: r.Bool(0.5)})
	}
	if s.Fold(3) != 0 {
		t.Fatal("distance below smallest length should fold to 0")
	}
	if s.Fold(4) != s.FoldExact(0) {
		t.Fatal("distance 4 should use the length-4 fold")
	}
	if s.Fold(15) != s.FoldExact(0) {
		t.Fatal("distance 15 should quantize down to length 4")
	}
	if s.Fold(16) != s.FoldExact(1) {
		t.Fatal("distance 16 should use the length-16 fold")
	}
	if s.Fold(1000) != s.FoldExact(2) {
		t.Fatal("huge distance should use the longest fold")
	}
}

func TestFoldSetTracksRing(t *testing.T) {
	s := NewFoldSet([]int{8}, 5, 32)
	r := rng.New(11)
	var hist []bool
	for i := 0; i < 500; i++ {
		b := r.Bool(0.4)
		s.Push(Entry{Taken: b})
		hist = append([]bool{b}, hist...)
		if len(hist) > 16 {
			hist = hist[:16]
		}
		if got, want := s.Fold(8), naiveFold(hist, 8, 5); got != want {
			t.Fatalf("step %d: fold = %#x, want %#x", i, got, want)
		}
	}
}

func TestFoldSetValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty lengths", func() { NewFoldSet(nil, 8, 64) })
	mustPanic("non-ascending", func() { NewFoldSet([]int{8, 8}, 8, 64) })
	mustPanic("small capacity", func() { NewFoldSet([]int{100}, 8, 64) })
}

func TestPathHistory(t *testing.T) {
	p := NewPath(4)
	// Push PCs with known bit-2 values: 0b100 has bit2=1, 0 has bit2=0.
	p.Push(0b100) // 1
	p.Push(0)     // 0
	p.Push(0b100) // 1
	p.Push(0b100) // 1
	if p.Value() != 0b1011 {
		t.Fatalf("path = %04b, want 1011", p.Value())
	}
	p.Push(0) // oldest bit falls out
	if p.Value() != 0b0110 {
		t.Fatalf("path after shift = %04b, want 0110", p.Value())
	}
}

func TestPathWidth64(t *testing.T) {
	p := NewPath(64)
	for i := 0; i < 100; i++ {
		p.Push(0b100)
	}
	if p.Value() != ^uint64(0) {
		t.Fatalf("64-bit path of all ones = %#x", p.Value())
	}
}

func TestGeometricRangeEndpoints(t *testing.T) {
	got := GeometricRange(3, 1930, 15)
	if got[0] != 3 {
		t.Fatalf("first = %d, want 3", got[0])
	}
	if got[14] != 1930 {
		t.Fatalf("last = %d, want 1930", got[14])
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("series not strictly increasing: %v", got)
		}
	}
}

func TestGeometricRangeSingle(t *testing.T) {
	got := GeometricRange(7, 100, 1)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("single-length series = %v, want [7]", got)
	}
}
