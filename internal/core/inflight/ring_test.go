package inflight

import "testing"

type slot struct {
	id  int
	buf []int
}

func newTestRing() (Ring[slot], *int) {
	built := 0
	return New(func() slot {
		built++
		return slot{buf: make([]int, 3)}
	}), &built
}

// TestRingFIFOAcrossGrowth pushes and pops at a varying depth that
// forces growth and wraparound, and checks FIFO order, At indexing and
// that every slot keeps the array it was built with.
func TestRingFIFOAcrossGrowth(t *testing.T) {
	r, built := newTestRing()
	next, want := 0, 0
	for step := 0; step < 2000; step++ {
		depth := step % 41
		for r.Len() < depth {
			s := r.Next()
			if len(s.buf) != 3 {
				t.Fatalf("slot lost its array: %v", s.buf)
			}
			s.id = next
			s.buf[0] = next
			next++
			r.Push()
		}
		for i := 0; i < r.Len(); i++ {
			if got := r.At(i).id; got != want+i {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, want+i)
			}
		}
		for r.Len() > depth/2 {
			if s := r.At(0); s.id != want || s.buf[0] != want {
				t.Fatalf("step %d: popped %d/%d, want %d", step, s.id, s.buf[0], want)
			}
			r.Pop()
			want++
		}
	}
	if *built != 64 {
		t.Errorf("built %d slots, want 64 (depth 40 rounds up to 64)", *built)
	}
}

func TestRingLastAndReset(t *testing.T) {
	r, _ := newTestRing()
	if r.Last(func(*slot) bool { return true }) != nil {
		t.Fatal("Last on an empty ring returned a slot")
	}
	for i := 0; i < 6; i++ {
		r.Next().id = i % 3
		r.Push()
	}
	r.Pop()
	s := r.Last(func(s *slot) bool { return s.id == 1 })
	if s == nil || s != r.At(3) {
		t.Fatalf("Last found %p, want the newest match %p", s, r.At(3))
	}
	r.Reset()
	if r.Len() != 0 || r.Last(func(*slot) bool { return true }) != nil {
		t.Fatal("Reset left checkpoints in flight")
	}
}

// TestRingSteadyStateAllocs requires push/pop at a fixed depth to
// allocate nothing once the ring has grown to that depth.
func TestRingSteadyStateAllocs(t *testing.T) {
	r, _ := newTestRing()
	for i := 0; i < 33; i++ {
		r.Next()
		r.Push()
	}
	if a := testing.AllocsPerRun(1000, func() {
		r.Next().id++
		r.Push()
		r.Pop()
	}); a != 0 {
		t.Errorf("steady-state push/pop allocates %.1f times", a)
	}
}
