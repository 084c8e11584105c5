package rs

import (
	"testing"

	"bfbp/internal/history"
	"bfbp/internal/rng"
)

// TestSegmentedPackObserver drives identical commit streams through an
// observed and an unobserved Segmented and checks that (a) the packed
// words agree at every step and (b) accumulating the observer's XOR
// deltas reconstructs the packed words exactly — the contract key maps
// rely on. An observer attached mid-run starts from the current words.
func TestSegmentedPackObserver(t *testing.T) {
	bounds := []int{4, 8, 16, 32, 64}
	const segSize = 8
	obs := NewSegmented(bounds, segSize)
	ref := NewSegmented(bounds, segSize)

	nSegs := obs.Segments()
	takenAcc := make([]uint64, nSegs)
	pcAcc := make([]uint64, nSegs)
	obs.SetPackObserver(func(seg int, dT, dP uint64) {
		if dT == 0 && dP == 0 {
			t.Fatalf("observer called with zero delta for segment %d", seg)
		}
		takenAcc[seg] ^= dT
		pcAcc[seg] ^= dP
	})

	r := rng.New(0x0B5E)
	var obsVecT, obsVecP, refVecT, refVecP history.BitVec
	for step := 0; step < 2000; step++ {
		e := history.Entry{
			HashedPC:  r.Uint32() & 0x3FFF,
			Taken:     r.Intn(2) == 0,
			NonBiased: r.Intn(3) == 0,
		}
		obs.Commit(e)
		ref.Commit(e)
		for i := 0; i < nSegs; i++ {
			oT, oP := obs.segs[i].taken, obs.segs[i].pcs
			rT, rP := ref.segs[i].taken, ref.segs[i].pcs
			if oT != rT || oP != rP {
				t.Fatalf("step %d seg %d: observed words %#x/%#x, reference %#x/%#x", step, i, oT, oP, rT, rP)
			}
			if takenAcc[i] != oT || pcAcc[i] != oP {
				t.Fatalf("step %d seg %d: delta-accumulated words %#x/%#x, actual %#x/%#x", step, i, takenAcc[i], pcAcc[i], oT, oP)
			}
		}
		obsVecT.Reset()
		obsVecP.Reset()
		refVecT.Reset()
		refVecP.Reset()
		obs.AppendPacked(&obsVecT, &obsVecP)
		ref.AppendPacked(&refVecT, &refVecP)
		for w := range refVecT.Words() {
			if obsVecT.Words()[w] != refVecT.Words()[w] || obsVecP.Words()[w] != refVecP.Words()[w] {
				t.Fatalf("step %d: AppendPacked diverged between observed and lazy instances", step)
			}
		}
	}
	late := make([][2]uint64, nSegs)
	ref.SetPackObserver(func(seg int, dT, dP uint64) {
		late[seg][0] ^= dT
		late[seg][1] ^= dP
	})
	for i := 0; i < nSegs; i++ {
		if rT, rP := ref.segs[i].taken, ref.segs[i].pcs; late[i] != [2]uint64{rT, rP} {
			t.Fatalf("seg %d: late observer starts at %#x/%#x, words are %#x/%#x", i, late[i][0], late[i][1], rT, rP)
		}
	}
}
