package rs

import (
	"math/rand"
	"testing"

	"bfbp/internal/history"
)

// The recency stacks must be observationally identical to the
// shift-register models of reference_test.go under arbitrary workloads;
// these tests drive both in lockstep with randomized streams and compare
// every piece of observable state after every operation.

func checkStackEqual(t *testing.T, step int, ref *refStack, s *Stack) {
	t.Helper()
	if ref.Len() != s.Len() {
		t.Fatalf("step %d: Len ref=%d new=%d", step, ref.Len(), s.Len())
	}
	v := s.View()
	if len(v.PC) != ref.Len() || len(v.Taken) != ref.Len() || len(v.Seq) != ref.Len() {
		t.Fatalf("step %d: View holds %d/%d/%d entries, want %d", step, len(v.PC), len(v.Taken), len(v.Seq), ref.Len())
	}
	for i := 0; i < ref.Len(); i++ {
		want := ref.At(i)
		if got := s.At(i); got != want {
			t.Fatalf("step %d: At(%d) ref=%+v new=%+v", step, i, want, got)
		}
		got := Entry{PC: uint64(v.PC[i]), Taken: v.Taken[i], Dist: min(v.Cur-v.Seq[i], v.MaxDist)}
		if got != want {
			t.Fatalf("step %d: View entry %d ref=%+v new=%+v", step, i, want, got)
		}
	}
}

func TestStackDifferential(t *testing.T) {
	configs := []struct {
		depth, distBits, pcSpace int
	}{
		{1, 4, 3},
		{4, 6, 6},
		{16, 12, 12}, // fewer PCs than depth is never reached: heavy hits
		{16, 12, 64},
		{48, 12, 32}, // more depth than PC space: stack saturates with hits
		{48, 12, 4096},
		{32, 10, 40}, // a small PC universe under a deep stack: constant hits
	}
	for _, cfg := range configs {
		rng := rand.New(rand.NewSource(int64(cfg.depth*1000 + cfg.pcSpace)))
		ref := newRefStack(cfg.depth, cfg.distBits)
		s := NewStack(cfg.depth, cfg.distBits)
		for step := 0; step < 20000; step++ {
			ref.Tick()
			s.Tick()
			// Model the filter: only ~half of committed branches are
			// pushed, so distances grow past 1 and saturate.
			if rng.Intn(2) == 0 {
				pc := uint32(rng.Intn(cfg.pcSpace)) * 0x1003
				taken := rng.Intn(2) == 0
				ref.Push(pc, taken)
				s.Push(pc, taken)
			}
			checkStackEqual(t, step, ref, s)
		}
	}
}

func checkSegmentedEqual(t *testing.T, step int, ref *refSegmented, s *Segmented) {
	t.Helper()
	for i := 0; i < s.Segments(); i++ {
		if ref.segs[i].n != s.SegmentLen(i) {
			t.Fatalf("step %d: seg %d len ref=%d new=%d", step, i, ref.segs[i].n, s.SegmentLen(i))
		}
		for j := 0; j < s.SegSize(); j++ {
			want, wok := ref.SegmentEntry(i, j)
			got, gok := s.SegmentEntry(i, j)
			if wok != gok || got != want {
				t.Fatalf("step %d: seg %d slot %d ref=%+v/%v new=%+v/%v",
					step, i, j, want, wok, got, gok)
			}
		}
	}
	wantGHR := ref.AppendBFGHR(nil)
	wantPCs := ref.AppendBFPCs(nil)
	// The packed words must agree with the reference's []bool forms.
	var ghrVec, pcsVec history.BitVec
	appendWords(s, &ghrVec, &pcsVec)
	if ghrVec.Len() != len(wantGHR) {
		t.Fatalf("step %d: packed GHR len=%d want %d", step, ghrVec.Len(), len(wantGHR))
	}
	for k := range wantGHR {
		if ghrVec.Bit(k) != wantGHR[k] || pcsVec.Bit(k) != wantPCs[k] {
			t.Fatalf("step %d: packed bit %d = (%v,%v), want (%v,%v)",
				step, k, ghrVec.Bit(k), pcsVec.Bit(k), wantGHR[k], wantPCs[k])
		}
	}
}

func TestSegmentedDifferential(t *testing.T) {
	configs := []struct {
		bounds  []int
		segSize int
		pcSpace int
	}{
		{[]int{1, 4}, 2, 8},
		{[]int{8, 16, 32, 64}, 4, 32},
		{[]int{16, 33, 67, 134, 270}, 8, 256}, // BF-TAGE-like geometry
		{[]int{1, 2, 5, 11, 23, 47}, 8, 16},   // dense bounds, heavy hits
		{paperSegBounds, 8, 1 << 14},          // §VI-C geometry, 14-bit hashed PCs
		{[]int{16, 1024, 2048}, 64, 1 << 12},  // the segment-size ablation
	}
	for _, cfg := range configs {
		rng := rand.New(rand.NewSource(int64(cfg.segSize*100 + cfg.pcSpace)))
		ref := newRefSegmented(cfg.bounds, cfg.segSize)
		s := NewSegmented(cfg.bounds, cfg.segSize)
		for step := 0; step < 8000; step++ {
			e := history.Entry{
				HashedPC:  uint32(rng.Intn(cfg.pcSpace))*0x205 + 1,
				Taken:     rng.Intn(2) == 0,
				NonBiased: rng.Intn(4) != 0, // ~75% non-biased
			}
			ref.Commit(e)
			s.Commit(e)
			checkSegmentedEqual(t, step, ref, s)
		}
	}
}
