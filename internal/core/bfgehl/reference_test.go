package bfgehl

import "bfbp/internal/history"

// This file holds the reference model the key map replaced: build the
// BF-GHR as a packed bit vector and re-fold it per table per lookup.
// TestComputeDifferential and TestResumeKeyMapRebuild pin Folds to it
// bit for bit.

// buildGHR assembles the packed BF-GHR: the unfiltered prefix is one
// masked word off the ring, each segment contributes one packed word.
// The address-bit vector is built alongside but unused by the folds.
func (h *ghrHistory) buildGHR(ghr, pcs *history.BitVec, unfiltered int) {
	ghr.Reset()
	pcs.Reset()
	seg := h.Segmented()
	ghr.Append(seg.Ring().RecentTaken(unfiltered), unfiltered)
	taken, addrs := seg.Words()
	for i := range taken {
		ghr.Append(taken[i], seg.SegSize())
		pcs.Append(addrs[i], seg.SegSize())
	}
}

// computeRef writes each of tables 1..Tables-1's fold into folds by
// rebuilding the packed BF-GHR and folding it per table with FoldWords.
func (h *ghrHistory) computeRef(cfg Config, folds []uint64) {
	var ghrVec, pcsVec history.BitVec
	h.buildGHR(&ghrVec, &pcsVec, cfg.UnfilteredBits)
	bits := ghrVec.Words()
	for i, l := range h.hists {
		folds[i] = history.FoldWords(bits, l, cfg.LogEntries)
	}
}
