package rs

import (
	"testing"

	"bfbp/internal/history"
	"bfbp/internal/rng"
)

func commitN(s *Segmented, n int, pc uint32, taken, nonBiased bool) {
	for i := 0; i < n; i++ {
		s.Commit(history.Entry{HashedPC: pc, Taken: taken, NonBiased: nonBiased})
	}
}

func TestSegmentedEntersAtBoundary(t *testing.T) {
	s := NewSegmented([]int{4, 8, 16}, 2)
	// Commit one non-biased branch, then pad with biased ones.
	s.Commit(history.Entry{HashedPC: 99, Taken: true, NonBiased: true})
	commitN(s, 2, 1, false, false)
	if s.SegmentLen(0) != 0 {
		t.Fatal("branch at depth 3 must not be in segment [4,8) yet")
	}
	commitN(s, 1, 1, false, false) // depth of 99 becomes 4
	if s.SegmentLen(0) != 1 {
		t.Fatalf("segment 0 len = %d, want 1 at depth 4", s.SegmentLen(0))
	}
	e, ok := s.SegmentEntry(0, 0)
	if !ok || e.PC != 99 || !e.Taken {
		t.Fatalf("segment entry = %+v ok=%v, want pc 99 taken", e, ok)
	}
}

func TestSegmentedBiasedBranchesExcluded(t *testing.T) {
	s := NewSegmented([]int{2, 6}, 4)
	s.Commit(history.Entry{HashedPC: 50, Taken: true, NonBiased: false})
	commitN(s, 10, 1, false, false)
	if s.SegmentLen(0) != 0 {
		t.Fatal("biased branch must never enter a segment stack")
	}
}

func TestSegmentedFallsThroughSegments(t *testing.T) {
	s := NewSegmented([]int{2, 4, 8}, 2)
	s.Commit(history.Entry{HashedPC: 7, Taken: true, NonBiased: true})
	commitN(s, 2, 1, false, false) // depth 2: enters segment [2,4)
	if s.SegmentLen(0) != 1 {
		t.Fatalf("seg0 len = %d, want 1", s.SegmentLen(0))
	}
	commitN(s, 2, 1, false, false) // depth 4: leaves [2,4), enters [4,8)
	if s.SegmentLen(0) != 0 {
		t.Fatalf("seg0 should have expired the entry, len = %d", s.SegmentLen(0))
	}
	if s.SegmentLen(1) != 1 {
		t.Fatalf("seg1 len = %d, want 1", s.SegmentLen(1))
	}
	e, _ := s.SegmentEntry(1, 0)
	if e.PC != 7 {
		t.Fatalf("seg1 entry pc = %d, want 7", e.PC)
	}
	commitN(s, 4, 1, false, false) // depth 8: past the last boundary
	if s.SegmentLen(1) != 0 {
		t.Fatal("entry should expire past the final boundary")
	}
}

func TestSegmentedMostRecentInstanceWins(t *testing.T) {
	s := NewSegmented([]int{2, 10}, 4)
	s.Commit(history.Entry{HashedPC: 7, Taken: false, NonBiased: true}) // older instance
	commitN(s, 1, 1, false, false)
	s.Commit(history.Entry{HashedPC: 7, Taken: true, NonBiased: true}) // newer instance
	// Older instance is at depth 3 (already in segment), newer at depth 1.
	commitN(s, 1, 1, false, false) // newer reaches depth 2: evicts older
	if s.SegmentLen(0) != 1 {
		t.Fatalf("seg0 len = %d, want 1 (same-PC dedup)", s.SegmentLen(0))
	}
	e, _ := s.SegmentEntry(0, 0)
	if !e.Taken {
		t.Fatal("surviving entry should be the newer (taken) instance")
	}
}

func TestSegmentedOverflowDropsDeepest(t *testing.T) {
	s := NewSegmented([]int{1, 100}, 2)
	// Three distinct non-biased branches enter segment [1,100).
	for pc := uint32(1); pc <= 3; pc++ {
		s.Commit(history.Entry{HashedPC: pc, Taken: true, NonBiased: true})
	}
	if s.SegmentLen(0) != 2 {
		t.Fatalf("seg len = %d, want 2 (capacity)", s.SegmentLen(0))
	}
	e0, _ := s.SegmentEntry(0, 0)
	e1, _ := s.SegmentEntry(0, 1)
	if e0.PC != 3 || e1.PC != 2 {
		t.Fatalf("surviving = [%d %d], want [3 2] (deepest dropped)", e0.PC, e1.PC)
	}
}

// appendWords appends s's BF-GHR contribution, read from Words, to two
// packed vectors: the outcome words to ghr and the address words to
// pcs, segSize bits per segment in increasing depth order.
func appendWords(s *Segmented, ghr, pcs *history.BitVec) {
	taken, addrs := s.Words()
	for i := range taken {
		ghr.Append(taken[i], s.SegSize())
		pcs.Append(addrs[i], s.SegSize())
	}
}

func TestSegmentedBFGHRGeometry(t *testing.T) {
	s := NewSegmented([]int{2, 4, 8}, 3)
	if s.Bits() != 6 {
		t.Fatalf("Bits = %d, want 6 (2 segments × 3)", s.Bits())
	}
	var ghr, pcs history.BitVec
	appendWords(s, &ghr, &pcs)
	if ghr.Len() != 6 || pcs.Len() != 6 {
		t.Fatalf("packed lens = %d/%d, want 6 even when empty", ghr.Len(), pcs.Len())
	}
	s.Commit(history.Entry{HashedPC: 9, Taken: true, NonBiased: true})
	commitN(s, 2, 1, false, false)
	ghr.Reset()
	pcs.Reset()
	appendWords(s, &ghr, &pcs)
	if !ghr.Bit(0) {
		t.Fatal("first slot of segment 0 should carry the taken outcome")
	}
	for k := 1; k < ghr.Len(); k++ {
		if ghr.Bit(k) {
			t.Fatal("empty slots must contribute false")
		}
	}
}

func TestSegmentedBFPCsBit(t *testing.T) {
	s := NewSegmented([]int{1, 4}, 2)
	s.Commit(history.Entry{HashedPC: 0b11, Taken: false, NonBiased: true})
	var ghr, pcs history.BitVec
	appendWords(s, &ghr, &pcs)
	if pcs.Len() != 2 || !pcs.Bit(0) || pcs.Bit(1) {
		t.Fatalf("address bits = %v %v (len %d), want [true false]", pcs.Bit(0), pcs.Bit(1), pcs.Len())
	}
}

func TestSegmentedPaperConfiguration(t *testing.T) {
	// The paper's segments {16,32,...,2048} with 8-entry stacks: 16
	// segments × 8 = 128 BF-GHR bits from the stacks.
	bounds := []int{16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048}
	s := NewSegmented(bounds, 8)
	if s.Segments() != 16 {
		t.Fatalf("segments = %d, want 16", s.Segments())
	}
	if s.Bits() != 128 {
		t.Fatalf("BF-GHR stack bits = %d, want 128", s.Bits())
	}
	// Soak: commit a realistic mixed stream and check invariants hold.
	r := rng.New(42)
	for i := 0; i < 20000; i++ {
		s.Commit(history.Entry{
			HashedPC:  uint32(r.Intn(2000)),
			Taken:     r.Bool(0.5),
			NonBiased: r.Bool(0.4),
		})
	}
	for i := 0; i < s.Segments(); i++ {
		if s.SegmentLen(i) > s.SegSize() {
			t.Fatalf("segment %d overflowed: %d", i, s.SegmentLen(i))
		}
		seen := map[uint64]bool{}
		for j := 0; j < s.SegmentLen(i); j++ {
			e, ok := s.SegmentEntry(i, j)
			if !ok {
				t.Fatalf("segment %d slot %d unexpectedly empty", i, j)
			}
			if seen[e.PC] {
				t.Fatalf("segment %d holds duplicate pc %d", i, e.PC)
			}
			seen[e.PC] = true
			// Entry depth must lie within the segment's window.
			if e.Dist < uint64(bounds[i]) || e.Dist >= uint64(bounds[i+1]) {
				t.Fatalf("segment %d entry depth %d outside [%d,%d)",
					i, e.Dist, bounds[i], bounds[i+1])
			}
		}
	}
}

func TestSegmentedRecencyOrderInvariant(t *testing.T) {
	bounds := []int{4, 16, 64}
	s := NewSegmented(bounds, 4)
	r := rng.New(9)
	for i := 0; i < 5000; i++ {
		s.Commit(history.Entry{
			HashedPC:  uint32(r.Intn(30)),
			Taken:     r.Bool(0.5),
			NonBiased: r.Bool(0.7),
		})
		for gi := 0; gi < s.Segments(); gi++ {
			var prev uint64
			for j := 0; j < s.SegmentLen(gi); j++ {
				e, _ := s.SegmentEntry(gi, j)
				if j > 0 && e.Dist < prev {
					t.Fatalf("segment %d not in recency order at step %d", gi, i)
				}
				prev = e.Dist
			}
		}
	}
}

func TestSegmentedValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("one bound", func() { NewSegmented([]int{4}, 2) })
	mustPanic("non-ascending", func() { NewSegmented([]int{4, 4}, 2) })
	mustPanic("zero bound", func() { NewSegmented([]int{0, 4}, 2) })
	mustPanic("zero segSize", func() { NewSegmented([]int{1, 4}, 0) })
}

func TestSegmentedStorage(t *testing.T) {
	bounds := []int{16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048}
	s := NewSegmented(bounds, 8)
	if got := s.StorageBits(); got != 128*16 {
		t.Fatalf("storage = %d bits, want %d", got, 128*16)
	}
}
