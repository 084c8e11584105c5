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

// BenchmarkSegmentedCommit commits a recorded stream of BST-classified
// branches into the paper's 16-segment, 8-slot stacks. One op is one
// Commit.
func BenchmarkSegmentedCommit(b *testing.B) {
	es := recordedCommits(b)
	s := NewSegmented(paperSegBounds, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Commit(es[i%len(es)])
	}
}
