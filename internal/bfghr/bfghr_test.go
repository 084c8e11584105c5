package bfghr

import (
	"testing"

	"bfbp/internal/history"
	"bfbp/internal/state"
	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

// paperConfig is the §VI-C BF-GHR the bias-free cores use: 16
// unfiltered bits, sixteen 8-slot segments out to depth 2048 and an
// 8192-entry BST.
func paperConfig() Config {
	return Config{UnfilteredBits: 16, SegBounds: PaperSegBounds(), SegSize: 8, BSTEntries: 8192}
}

// bfTage10Fields is bf-tage-10's key-map field family.
func bfTage10Fields() [][]history.Term {
	return bfTageFields(
		[]int{3, 8, 14, 26, 40, 54, 70, 94, 118, 142},
		[]int{11, 11, 11, 12, 12, 12, 11, 11, 10, 10},
		[]int{7, 7, 8, 9, 10, 11, 11, 13, 14, 15})
}

// bfISLTage7Fields is bf-isl-tage-7's key-map field family: geometric
// history lengths from 3 to 142 rather than bf-tage-10's hand-picked
// ones.
func bfISLTage7Fields() [][]history.Term {
	return bfTageFields(
		[]int{3, 6, 11, 21, 39, 75, 142},
		[]int{12, 11, 13, 12, 11, 11, 10},
		[]int{7, 8, 10, 11, 13, 14, 15})
}

// bfTageFields is a BF-TAGE key-map field family on both channels, given
// each tagged table's history length, log2 entries and tag width: per
// table, the index field fold_L(T) ^ fold_{L-1}(P)<<1 and the tag field
// fold_T(T) ^ fold_{T-1}(T)<<1 over the BF-GHR's first L bits.
func bfTageFields(hist, logE, tagB []int) [][]history.Term {
	var fields [][]history.Term
	for i, l := range hist {
		fields = append(fields,
			[]history.Term{{Ch: 0, N: l, Width: logE[i]}, {Ch: 1, N: l, Width: logE[i] - 1, Shift: 1}},
			[]history.Term{{Ch: 0, N: l, Width: tagB[i]}, {Ch: 0, N: l, Width: tagB[i] - 1, Shift: 1}})
	}
	return fields
}

// bfGEHLFields is bf-gehl's default field family, on channel 0 only:
// one 13-bit fold per table over geometric lengths out to the whole
// 144-bit register.
func bfGEHLFields() [][]history.Term {
	var fields [][]history.Term
	for _, l := range history.GeometricRange(2, 144, 7) {
		fields = append(fields, []history.Term{{Ch: 0, N: l, Width: 13}})
	}
	return fields
}

// spec03 is SPEC03's first n branches.
func spec03(tb testing.TB, n int) trace.Slice {
	tb.Helper()
	s, ok := workload.ByName("SPEC03")
	if !ok {
		tb.Fatal("SPEC03 workload spec unavailable")
	}
	return s.GenerateN(n)
}

// checkKeys asserts that every field read from g.Keys() equals the XOR
// of its terms' FoldWords over the composed BF-GHR: the unfiltered
// prefix followed by the segments' packed words, per channel.
func checkKeys(t *testing.T, step int, g *GHR, fields [][]history.Term) {
	t.Helper()
	var vecs [2]history.BitVec
	ring := g.Segmented().Ring()
	vecs[0].Append(ring.RecentTaken(g.cfg.UnfilteredBits), g.cfg.UnfilteredBits)
	vecs[1].Append(ring.RecentPC(g.cfg.UnfilteredBits), g.cfg.UnfilteredBits)
	taken, pcs := g.Segmented().Words()
	for i := range taken {
		vecs[0].Append(taken[i], g.Segmented().SegSize())
		vecs[1].Append(pcs[i], g.Segmented().SegSize())
	}
	kw := g.Keys()
	for f, terms := range fields {
		var want uint64
		for _, tm := range terms {
			want ^= history.FoldWords(vecs[tm.Ch].Words(), tm.N, tm.Width) << uint(tm.Shift)
		}
		if got := g.Field(kw, f); got != want {
			t.Fatalf("commit %d field %d %+v: key %#x, FoldWords over the BF-GHR %#x", step, f, terms, got, want)
		}
	}
}

// TestKeysMatchFoldWords commits SPEC03 into BF-GHRs keyed by
// bf-tage-10's, bf-isl-tage-7's and bf-gehl's field families and checks
// every field against FoldWords over the composed register after every
// commit.
// Halfway it saves the register. At the end it loads that snapshot back
// into the same register, whose key map Load rebuilds with Reset and
// one Sync, and replays the second half, checking again.
func TestKeysMatchFoldWords(t *testing.T) {
	tr := spec03(t, 20_000)
	half := len(tr) / 2
	for _, tc := range []struct {
		name   string
		fields [][]history.Term
	}{
		{"bf-tage-10", bfTage10Fields()},
		{"bf-isl-tage-7", bfISLTage7Fields()},
		{"bf-gehl", bfGEHLFields()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := New(paperConfig(), tc.fields)
			checkKeys(t, 0, g, tc.fields)
			s := state.New(tc.name, 0)
			for i, r := range tr {
				g.Commit(r.PC, r.Taken)
				checkKeys(t, i+1, g, tc.fields)
				if i+1 == half {
					if _, err := g.Save(s); err != nil {
						t.Fatal(err)
					}
				}
			}
			install := g.Load(s)
			if err := s.Err(); err != nil {
				t.Fatalf("load: %v", err)
			}
			install()
			checkKeys(t, half, g, tc.fields)
			for i, r := range tr[half:] {
				g.Commit(r.PC, r.Taken)
				checkKeys(t, half+i+1, g, tc.fields)
			}
		})
	}
}
