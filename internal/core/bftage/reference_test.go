package bftage

import "bfbp/internal/history"

// This file holds the reference model the key map replaced: build the
// BF-GHR as packed bit vectors and re-fold it per table per lookup.
// TestFillKeysDifferential pins Folds to it bit for bit.

// buildGHR composes the BF-GHR bit vector (outcomes) and the parallel
// address-bit vector: recent unfiltered bits first, then each segment's
// stack slots in increasing depth (Fig. 7).
func (h *ghrHistory) buildGHR(ghr, pcs *history.BitVec, unfiltered int) {
	ghr.Reset()
	pcs.Reset()
	seg := h.Segmented()
	ring := seg.Ring()
	ghr.Append(ring.RecentTaken(unfiltered), unfiltered)
	pcs.Append(ring.RecentPC(unfiltered), unfiltered)
	taken, addrs := seg.Words()
	for i := range taken {
		ghr.Append(taken[i], seg.SegSize())
		pcs.Append(addrs[i], seg.SegSize())
	}
}

// fillKeysRef computes every table's index fold (path included) and tag
// fold by rebuilding the packed BF-GHR and folding it per table with
// FoldWords.
func (h *ghrHistory) fillKeysRef(cfg Config, idx, tag []uint64) {
	var ghrVec, pcsVec history.BitVec
	h.buildGHR(&ghrVec, &pcsVec, cfg.UnfilteredBits)
	bits, pcs := ghrVec.Words(), pcsVec.Words()
	path := h.path.Value()
	for i, t := range cfg.Tables {
		l := t.HistLen
		fIdx := history.FoldWords(bits, l, t.LogEntries)
		fPC := history.FoldWords(pcs, l, t.LogEntries-1)
		idx[i] = fIdx ^ fPC<<1 ^ path<<20
		fT0 := history.FoldWords(bits, l, t.TagBits)
		fT1 := history.FoldWords(bits, l, t.TagBits-1)
		tag[i] = fT0 ^ fT1<<1
	}
}
