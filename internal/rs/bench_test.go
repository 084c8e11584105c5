package rs

import (
	"testing"

	"bfbp/internal/bst"
	"bfbp/internal/history"
	"bfbp/internal/rng"
	"bfbp/internal/workload"
)

// paperSegBounds is bfghr.PaperSegBounds, the §VI-C segmentation:
// sixteen segments out to depth 2048.
var paperSegBounds = []int{16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048}

// recordedCommits is SPEC03's first 100,000 branches as the BF-GHR
// commits them: classified by an 8192-entry BST, hashed to 14 bits.
func recordedCommits(b *testing.B) []history.Entry {
	b.Helper()
	s, ok := workload.ByName("SPEC03")
	if !ok {
		b.Skip("SPEC03 workload spec unavailable")
	}
	class := bst.NewTable(8192)
	recs := s.GenerateN(100_000)
	es := make([]history.Entry, len(recs))
	for i, r := range recs {
		class.Update(r.PC, r.Taken)
		es[i] = history.Entry{
			HashedPC:  uint32(rng.Hash64(r.PC>>2) & 0x3FFF),
			Taken:     r.Taken,
			NonBiased: class.Lookup(r.PC) == bst.NonBiased,
		}
	}
	return es
}

// bfTage10Fields is bf-tage-10's key-map field family: per table, an
// index field and a tag field over the BF-GHR's first l bits.
func bfTage10Fields() [][]history.Term {
	hist := []int{3, 8, 14, 26, 40, 54, 70, 94, 118, 142}
	logE := []int{11, 11, 11, 12, 12, 12, 11, 11, 10, 10}
	tagB := []int{7, 7, 8, 9, 10, 11, 11, 13, 14, 15}
	var fields [][]history.Term
	for i, l := range hist {
		fields = append(fields,
			[]history.Term{{Ch: 0, N: l, Width: logE[i]}, {Ch: 1, N: l, Width: logE[i] - 1, Shift: 1}},
			[]history.Term{{Ch: 0, N: l, Width: tagB[i]}, {Ch: 0, N: l, Width: tagB[i] - 1, Shift: 1}})
	}
	return fields
}

// BenchmarkSegmentedCommit commits a recorded stream of BST-classified
// branches into the paper's 16-segment, 8-slot stacks: bare, and with
// bf-tage-10's key map synced from the segment words after each commit,
// as the BF-GHR runs it. One op is one Commit (and Sync).
func BenchmarkSegmentedCommit(b *testing.B) {
	es := recordedCommits(b)
	for _, bc := range []struct {
		name   string
		keymap bool
	}{{"bare", false}, {"keymap", true}} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewSegmented(paperSegBounds, 8)
			var m *history.KeyMap
			if bc.keymap {
				m = history.NewKeyMap(16, 8, s.Segments(), bfTage10Fields())
				m.Sync(s.Words()) // tabulates the rows
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Commit(es[i%len(es)])
				if m != nil {
					m.Sync(s.Words())
				}
			}
		})
	}
}
