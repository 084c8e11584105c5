package history

import (
	"errors"
	"testing"

	"bfbp/internal/rng"
	"bfbp/internal/state"
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

// TestRingWindowMatchesAt checks the in-place view against At at every
// position, for requests shorter and longer than the populated history,
// before the ring fills, once it is full and after its head wraps.
func TestRingWindowMatchesAt(t *testing.T) {
	r := NewRing(128)
	g := rng.New(17)
	for pushed := 0; pushed <= 300; pushed++ {
		for _, n := range []int{0, 1, 16, 64, 126, 128} {
			w := r.Window(n)
			if want := min(n, r.Len()); w.N != want {
				t.Fatalf("pushed %d: Window(%d).N = %d, want %d", pushed, n, w.N, want)
			}
			for i := 0; i < w.N; i++ {
				e, ok := r.At(i + 1)
				if !ok || w.PC(i) != e.HashedPC || w.Taken(i) != e.Taken {
					t.Fatalf("pushed %d n %d position %d: (%d, %v), At gives (%d, %v, %v)",
						pushed, n, i, w.PC(i), w.Taken(i), e.HashedPC, e.Taken, ok)
				}
			}
		}
		r.Push(Entry{HashedPC: g.Uint32(), Taken: g.Intn(2) == 0, NonBiased: g.Intn(2) == 0})
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

// TestRingLoadRejectsInconsistentState checks that a ring snapshot
// whose recent words or never-pushed slots disagree with its pushed
// entries fails as corrupt, before and after the ring wraps, while the
// untouched snapshot loads.
func TestRingLoadRejectsInconsistentState(t *testing.T) {
	type image struct {
		rt, rp    uint64
		pcs       []uint32
		taken, nb []bool
	}
	for _, pushes := range []int{5, 40} { // capacity 16: partial, wrapped
		r := NewRing(16)
		for i := 0; i < pushes; i++ {
			r.Push(Entry{HashedPC: uint32(i*7 + 3), Taken: i%3 == 0, NonBiased: i%2 == 0})
		}
		load := func(mutate func(*image)) error {
			m := image{rt: r.recentTaken, rp: r.recentPC, pcs: append([]uint32(nil), r.pcs...),
				taken: make([]bool, 16), nb: make([]bool, 16)}
			for i := range m.taken {
				m.taken[i], m.nb[i] = slotBit(r.takenW, i), slotBit(r.nbW, i)
			}
			mutate(&m)
			snap := state.New("t", 0)
			e := snap.Section("ring")
			e.Int(r.head)
			e.Int(r.size)
			e.U64(m.rt)
			e.U64(m.rp)
			e.U32s(m.pcs)
			e.Bools(m.taken)
			e.Bools(m.nb)
			return loadSection(snap, "ring", NewRing(16).LoadState)
		}
		if err := load(func(*image) {}); err != nil {
			t.Fatalf("%d pushes: intact snapshot: %v", pushes, err)
		}
		for name, mutate := range map[string]func(*image){
			"recent taken": func(m *image) { m.rt ^= 1 },
			"recent pc":    func(m *image) { m.rp ^= 2 },
			"slot outcome": func(m *image) { m.taken[r.head] = !m.taken[r.head] },
			"slot pc":      func(m *image) { m.pcs[15] += 2 }, // low bit kept
		} {
			err := load(mutate)
			if name == "slot pc" && pushes > 16 { // a pushed slot: any pc is legal
				if err != nil {
					t.Errorf("%d pushes: %s: %v", pushes, name, err)
				}
				continue
			}
			if !errors.Is(err, state.ErrCorrupt) {
				t.Errorf("%d pushes: %s: err = %v, want ErrCorrupt", pushes, name, err)
			}
		}
	}
}

// loadSection runs load over the named section of snap and returns the
// snapshot's one Err check.
func loadSection(snap *state.Snapshot, name string, load func(*state.Dec)) error {
	load(snap.Dec(name))
	return snap.Err()
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
	s := NewFoldSet(FoldRegs([]int{4, 16, 64}, 8), 126)
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
	s := NewFoldSet(FoldRegs([]int{8}, 5), 30)
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
	mustPanic("empty lengths", func() { NewFoldSet(nil, 62) })
	mustPanic("descending", func() { NewFoldSet(FoldRegs([]int{9, 8}, 8), 62) })
	mustPanic("zero length", func() { NewFoldSet(FoldRegs([]int{0}, 8), 62) })
	mustPanic("zero width", func() { NewFoldSet(FoldRegs([]int{8}, 0), 62) })
	mustPanic("width 64", func() { NewFoldSet(FoldRegs([]int{8}, 64), 62) })
	mustPanic("small capacity", func() { NewFoldSet(FoldRegs([]int{100}, 8), 62) })
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
