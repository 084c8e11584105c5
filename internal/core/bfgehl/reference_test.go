package bfgehl

import (
	"bfbp/internal/history"
	"bfbp/internal/rng"
)

// This file holds the reference model the key map replaced: build the
// BF-GHR as a packed bit vector and re-fold it per table per lookup.
// TestComputeDifferential and TestResumeKeyMapRebuild pin compute to
// it bit for bit.

// buildGHR assembles the packed BF-GHR: the unfiltered prefix is one
// masked word off the ring, each segment contributes one packed word.
// The address-bit vector is built alongside but unused by the hash.
func (p *Predictor) buildGHR(ghr, pcs *history.BitVec) {
	ghr.Reset()
	pcs.Reset()
	ghr.Append(p.seg.Ring().RecentTaken(p.cfg.UnfilteredBits), p.cfg.UnfilteredBits)
	p.seg.AppendPacked(ghr, pcs)
}

// computeRef evaluates the adder-tree sum for pc, filling idxs, by
// rebuilding the packed BF-GHR and folding it per table with FoldWords.
func (p *Predictor) computeRef(pc uint64, idxs []uint32) int32 {
	var ghrVec, pcsVec history.BitVec
	p.buildGHR(&ghrVec, &pcsVec)
	bits := ghrVec.Words()
	pch := rng.Hash64(pc >> 2)
	var sum int32
	for i := range p.tables {
		var key uint64
		if i == 0 {
			key = pch
		} else {
			key = pch ^ history.FoldWords(bits, p.hists[i], p.cfg.LogEntries)<<3 ^ uint64(i)<<57
		}
		idx := uint32(rng.Hash64(key) & p.mask)
		idxs[i] = idx
		sum += 2*int32(p.tables[i][idx]) + 1
	}
	return sum
}
