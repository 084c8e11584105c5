package rs

import (
	"testing"

	"bfbp/internal/history"
	"bfbp/internal/rng"
	"bfbp/internal/state"
)

// TestSegmentedWords drives one commit stream through Segmented and the
// per-segment reference model and checks that Words holds every
// segment's packed outcome and address words after each commit — the
// contract the BF-GHR's key map syncs from. Every 500 commits the stack
// is saved and loaded, and the loaded copy's Words must equal the saved
// one's before the run continues on it.
func TestSegmentedWords(t *testing.T) {
	bounds := []int{4, 8, 16, 32, 64}
	const segSize = 8
	s := NewSegmented(bounds, segSize)
	ref := newRefSegmented(bounds, segSize)
	check := func(step int, s *Segmented) {
		t.Helper()
		taken, pcs := s.Words()
		if len(taken) != s.Segments() || len(pcs) != s.Segments() {
			t.Fatalf("step %d: Words has %d/%d words, want %d", step, len(taken), len(pcs), s.Segments())
		}
		for i := range taken {
			wt, wp := ref.words(i)
			if taken[i] != wt || pcs[i] != wp {
				t.Fatalf("step %d seg %d: words %#x/%#x, reference %#x/%#x", step, i, taken[i], pcs[i], wt, wp)
			}
		}
	}
	check(0, s)
	r := rng.New(0x0B5E)
	for step := 1; step <= 2000; step++ {
		e := history.Entry{
			HashedPC:  r.Uint32() & 0x3FFF,
			Taken:     r.Intn(2) == 0,
			NonBiased: r.Intn(3) == 0,
		}
		s.Commit(e)
		ref.Commit(e)
		check(step, s)
		if step%500 != 0 {
			continue
		}
		var enc state.Enc
		s.SaveState(&enc)
		loaded := NewSegmented(bounds, segSize)
		if err := loadEnc(enc, loaded.LoadState); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		check(step, loaded)
		s = loaded
	}
}
