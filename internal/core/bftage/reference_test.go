package bftage

import (
	"bfbp/internal/history"
	"bfbp/internal/rng"
)

// This file holds the reference model the key map replaced: build the
// BF-GHR as packed bit vectors and re-fold it per table per lookup.
// TestFillKeysDifferential pins fillKeys to it bit for bit.

// buildGHR composes the BF-GHR bit vector (outcomes) and the parallel
// address-bit vector: recent unfiltered bits first, then each segment's
// stack slots in increasing depth (Fig. 7).
func (p *Predictor) buildGHR(ghr, pcs *history.BitVec) {
	ghr.Reset()
	pcs.Reset()
	ring := p.seg.Ring()
	ghr.Append(ring.RecentTaken(p.cfg.UnfilteredBits), p.cfg.UnfilteredBits)
	pcs.Append(ring.RecentPC(p.cfg.UnfilteredBits), p.cfg.UnfilteredBits)
	p.seg.AppendPacked(ghr, pcs)
}

// fillKeysRef computes every table's index and tag by rebuilding the
// packed BF-GHR and folding it per table with FoldWords.
func (p *Predictor) fillKeysRef(pc uint64, idx, tag []uint32) {
	var ghrVec, pcsVec history.BitVec
	p.buildGHR(&ghrVec, &pcsVec)
	bits, pcs := ghrVec.Words(), pcsVec.Words()
	pch := rng.Hash64(pc >> 2)
	path := p.path.Value()
	for i, t := range p.tables {
		l := t.cfg.HistLen
		fIdx := history.FoldWords(bits, l, t.cfg.LogEntries)
		fPC := history.FoldWords(pcs, l, t.cfg.LogEntries-1)
		key := pch ^ fIdx ^ fPC<<1 ^ path<<20 ^ uint64(i)<<56
		idx[i] = uint32(rng.Hash64(key) & t.mask)
		fT0 := history.FoldWords(bits, l, t.cfg.TagBits)
		fT1 := history.FoldWords(bits, l, t.cfg.TagBits-1)
		tag[i] = (uint32(pch>>8) ^ uint32(fT0) ^ uint32(fT1)<<1) & t.tagMask
	}
}
