package bfneural

import "bfbp/internal/rng"

// This file holds the reference models the gathered fast paths replaced.
// TestComputeDifferential and TestQuantDistDifferential pin Fill and
// quantDist to them.

// quantDistRef is the original loop formulation of quantDist.
func quantDistRef(d uint64) uint64 {
	if d < 64 {
		return d
	}
	shift := uint(0)
	for v := d; v >= 64; v >>= 1 {
		shift++
	}
	return (d >> shift) << shift
}

// computeRef is the reference model for Fill: the same indices through
// the per-entry accessors (Ring.At, Stack.At, the loop-based
// quantizer) instead of the gathered fast paths. It returns the indices,
// their directions, and how many of them are Wm positions.
func (s *source) computeRef(pc uint64) (idx []int32, dirs []bool, recent int) {
	var pch uint64
	if !s.cfg.AheadPipelined {
		pch = rng.Hash64(pc >> 2)
	}
	ht := s.cfg.RecentUnfiltered
	fs := s.u.Folds()
	wmMask := uint64(s.cfg.WmRows - 1)
	for i := 1; i <= ht; i++ {
		e, ok := fs.Ring().At(i)
		if !ok {
			break // deeper positions are unpopulated too
		}
		key := pch ^ uint64(e.HashedPC)*0x9e3779b97f4a7c15 ^ fs.Fold(i)<<17 ^ uint64(i)<<40
		idx = append(idx, int32(rng.Hash64(key)&wmMask)*int32(ht)+int32(i-1))
		dirs = append(dirs, e.Taken)
	}
	recent = len(idx)

	if s.rstack != nil {
		for j := 0; j < s.rstack.Len(); j++ {
			e := s.rstack.At(j)
			key := pch ^ e.PC*0x9e3779b97f4a7c15 ^ quantDistRef(e.Dist)<<28 ^ fs.Fold(int(e.Dist))<<9
			idx = append(idx, s.wrsBase+int32(rng.Hash64(key)&s.wrsMask))
			dirs = append(dirs, e.Taken)
		}
		return idx, dirs, recent
	}
	for j := range s.filt {
		e := &s.filt[j]
		dist := s.seq - e.seq
		if dist > 1<<distBits-1 {
			dist = 1<<distBits - 1
		}
		key := pch ^ uint64(e.hpc)*0x9e3779b97f4a7c15 ^ uint64(j)<<28 ^ fs.Fold(int(dist))<<9
		idx = append(idx, s.wrsBase+int32(rng.Hash64(key)&s.wrsMask))
		dirs = append(dirs, e.taken)
	}
	return idx, dirs, recent
}
