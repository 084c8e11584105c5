package rs

import (
	"testing"
	"testing/quick"

	"bfbp/internal/rng"
)

func TestStackMostRecentOnTop(t *testing.T) {
	s := NewStack(4, 12)
	for _, pc := range []uint32{10, 20, 30} {
		s.Tick()
		s.Push(pc, true)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if top := s.At(0); top.PC != 30 {
		t.Fatalf("top = %d, want 30", top.PC)
	}
	if e := s.At(2); e.PC != 10 {
		t.Fatalf("bottom = %d, want 10", e.PC)
	}
}

func TestStackHitMovesToTop(t *testing.T) {
	s := NewStack(4, 12)
	for _, pc := range []uint32{10, 20, 30} {
		s.Tick()
		s.Push(pc, false)
	}
	s.Tick()
	s.Push(10, true) // re-occurrence of the deepest entry
	if s.Len() != 3 {
		t.Fatalf("hit must not grow the stack: Len = %d", s.Len())
	}
	top := s.At(0)
	if top.PC != 10 || !top.Taken {
		t.Fatalf("top = %+v, want PC 10 taken", top)
	}
	// Order below: 30 then 20 (shifted down by one).
	if s.At(1).PC != 30 || s.At(2).PC != 20 {
		t.Fatalf("order after hit = [%d %d %d], want [10 30 20]",
			s.At(0).PC, s.At(1).PC, s.At(2).PC)
	}
}

func TestStackEvictsDeepestWhenFull(t *testing.T) {
	s := NewStack(3, 12)
	for _, pc := range []uint32{1, 2, 3, 4} {
		s.Tick()
		s.Push(pc, true)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	// 1 was the deepest entry and fell off; 2, 3 and 4 survive.
	if s.At(0).PC != 4 || s.At(1).PC != 3 || s.At(2).PC != 2 {
		t.Fatalf("stack = [%d %d %d], want [4 3 2]", s.At(0).PC, s.At(1).PC, s.At(2).PC)
	}
}

func TestStackUniquePCs(t *testing.T) {
	// The defining invariant: at most one entry per PC.
	s := NewStack(8, 12)
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		s.Tick()
		s.Push(uint32(r.Intn(12)), r.Bool(0.5))
		seen := map[uint64]bool{}
		for j := 0; j < s.Len(); j++ {
			pc := s.At(j).PC
			if seen[pc] {
				t.Fatalf("duplicate PC %d in stack at step %d", pc, i)
			}
			seen[pc] = true
		}
	}
}

func TestStackPositionalHistory(t *testing.T) {
	s := NewStack(4, 12)
	s.Tick()
	s.Push(10, true) // occurs at global position 1
	// Three more branches commit (biased: tick without push).
	s.Tick()
	s.Tick()
	s.Tick()
	if d := s.At(0).Dist; d != 3 {
		t.Fatalf("pos_hist = %d, want 3", d)
	}
	s.Tick()
	s.Push(20, false)
	if d := s.At(1).Dist; d != 4 {
		t.Fatalf("pos_hist of 10 = %d, want 4", d)
	}
	if d := s.At(0).Dist; d != 0 {
		t.Fatalf("pos_hist of just-pushed 20 = %d, want 0", d)
	}
}

func TestStackDistanceSaturates(t *testing.T) {
	s := NewStack(2, 4) // distances saturate at 15
	s.Tick()
	s.Push(10, true)
	for i := 0; i < 100; i++ {
		s.Tick()
	}
	if d := s.At(0).Dist; d != 15 {
		t.Fatalf("saturated distance = %d, want 15", d)
	}
}

func TestStackHitUpdatesOutcome(t *testing.T) {
	s := NewStack(4, 12)
	s.Tick()
	s.Push(10, true)
	s.Tick()
	s.Push(10, false)
	if s.Len() != 1 || s.At(0).Taken {
		t.Fatal("hit should refresh the stored outcome")
	}
}

func TestStackValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero depth", func() { NewStack(0, 12) })
	mustPanic("bad distBits", func() { NewStack(4, 0) })
	mustPanic("At out of range", func() { NewStack(4, 12).At(0) })
}

// Reference model: the stack must equal "unique PCs of non-biased pushes,
// ordered by last occurrence, truncated to depth".
func TestStackMatchesReferenceProperty(t *testing.T) {
	f := func(seed uint64, pushes []uint8) bool {
		s := NewStack(6, 16)
		type occ struct {
			pc   uint32
			seq  int
			take bool
		}
		var ref []occ // most recent first
		seq := 0
		r := rng.New(seed)
		for _, p := range pushes {
			seq++
			s.Tick()
			if p%3 == 0 {
				continue // a biased branch: position advances, no push
			}
			pc := uint32(p % 10)
			taken := r.Bool(0.5)
			s.Push(pc, taken)
			// Update reference: remove pc, prepend.
			for i, o := range ref {
				if o.pc == pc {
					ref = append(ref[:i], ref[i+1:]...)
					break
				}
			}
			ref = append([]occ{{pc, seq, taken}}, ref...)
			if len(ref) > 6 {
				ref = ref[:6]
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for i, o := range ref {
			e := s.At(i)
			if e.PC != uint64(o.pc) || e.Taken != o.take || e.Dist != uint64(seq-o.seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
