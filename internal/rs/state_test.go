package rs

import (
	"errors"
	"testing"

	"bfbp/internal/history"
	"bfbp/internal/rng"
	"bfbp/internal/state"
)

// TestStackStateRoundTrip drives a stack through hits, misses, and
// evictions, snapshots it, restores into a fresh stack, and checks the
// recency order is identical — the contract that makes
// restored BF predictors bit-exact.
func TestStackStateRoundTrip(t *testing.T) {
	s := NewStack(8, 12)
	// More unique PCs than depth forces evictions; revisits force hits
	// and relinks.
	pcs := []uint32{1, 2, 3, 4, 5, 2, 6, 7, 8, 9, 3, 10, 11, 2, 12}
	for i, pc := range pcs {
		s.Tick()
		s.Push(pc, i%3 == 0)
	}
	var e state.Enc
	s.SaveState(&e)

	r := NewStack(8, 12)
	if err := loadEnc(e, r.LoadState); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if r.Len() != s.Len() {
		t.Fatalf("len %d vs %d", r.Len(), s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if a, b := s.At(i), r.At(i); a != b {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a, b)
		}
	}

	// Byte stability: re-saving the restored stack reproduces the bytes.
	var e2 state.Enc
	r.SaveState(&e2)
	if string(e.Data()) != string(e2.Data()) {
		t.Fatal("stack snapshot is not byte-stable")
	}

	// The restored stack must evolve identically.
	for i, pc := range []uint32{2, 13, 1, 14} {
		s.Tick()
		r.Tick()
		s.Push(pc, i%2 == 0)
		r.Push(pc, i%2 == 0)
	}
	for i := 0; i < s.Len(); i++ {
		if s.At(i) != r.At(i) {
			t.Fatalf("divergence after resume at %d", i)
		}
	}
}

func TestSegmentedStateRoundTrip(t *testing.T) {
	mk := func() *Segmented { return NewSegmented([]int{1, 4, 12, 30}, 4) }
	s := mk()
	for i := 0; i < 200; i++ {
		s.Commit(history.Entry{
			HashedPC:  uint32(i%17 + 1),
			Taken:     i%3 != 0,
			NonBiased: i%2 == 0,
		})
	}
	var e state.Enc
	s.SaveState(&e)
	r := mk()
	if err := loadEnc(e, r.LoadState); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	var e2 state.Enc
	r.SaveState(&e2)
	if string(e.Data()) != string(e2.Data()) {
		t.Fatal("segmented snapshot is not byte-stable")
	}
	// Packed BF-GHR output and subsequent evolution must match.
	check := func(step int) {
		var g1, p1, g2, p2 history.BitVec
		appendWords(s, &g1, &p1)
		appendWords(r, &g2, &p2)
		if g1.Len() != g2.Len() {
			t.Fatalf("step %d: packed lengths differ", step)
		}
		for i := 0; i < g1.Len(); i++ {
			if g1.Bit(i) != g2.Bit(i) || p1.Bit(i) != p2.Bit(i) {
				t.Fatalf("step %d: packed bit %d differs", step, i)
			}
		}
	}
	check(-1)
	for i := 0; i < 100; i++ {
		en := history.Entry{HashedPC: uint32(i%11 + 3), Taken: i%5 != 0, NonBiased: i%3 != 0}
		s.Commit(en)
		r.Commit(en)
		if i%25 == 0 {
			check(i)
		}
	}
}

func TestStackLoadRejectsCorrupt(t *testing.T) {
	var e state.Enc
	e.U64(5) // seq
	e.U32(3) // 3 entries claimed...
	e.U64(7) // ...but only one present
	if err := loadEnc(e, NewStack(8, 12).LoadState); !errors.Is(err, state.ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}

	var dup state.Enc
	dup.U64(5)
	dup.U32(2)
	dup.U64(7)
	dup.Bool(true)
	dup.U64(1)
	dup.U64(7) // duplicate pc
	dup.Bool(false)
	dup.U64(2)
	if err := loadEnc(dup, NewStack(8, 12).LoadState); !errors.Is(err, state.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt on duplicate pc, got %v", err)
	}

	var over state.Enc
	over.U64(5)
	over.U32(99) // more entries than depth
	if err := loadEnc(over, NewStack(8, 12).LoadState); !errors.Is(err, state.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt on overflow, got %v", err)
	}

	// Well-formed entry lists whose values no run of a stack can
	// produce: each is listed most recent first under counter 5.
	type ent struct {
		pc  uint64
		seq uint64
	}
	for _, tc := range []struct {
		name string
		ents []ent
	}{
		{"pc wider than 32 bits", []ent{{7, 4}, {1 << 32, 2}}},
		{"seq above the counter", []ent{{7, 6}, {8, 2}}},
		{"seqs increasing with depth", []ent{{7, 2}, {8, 4}}},
	} {
		var e state.Enc
		e.U64(5)
		e.U32(uint32(len(tc.ents)))
		for _, x := range tc.ents {
			e.U64(x.pc)
			e.Bool(true)
			e.U64(x.seq)
		}
		if err := loadEnc(e, NewStack(8, 12).LoadState); !errors.Is(err, state.ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", tc.name, err)
		}
	}
}

// TestSegmentedLoadMatchesRebuild saves the paper's segmented stacks
// before and after the deepest bound (2048) fills, over five PC
// alphabets, and checks every snapshot loads: replaying the ring
// reproduces the segments that the commits built.
func TestSegmentedLoadMatchesRebuild(t *testing.T) {
	bounds := []int{16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048}
	for _, alphabet := range []int{3, 17, 200, 2000, 1 << 20} {
		s := NewSegmented(bounds, 8)
		r := rng.New(uint64(alphabet))
		for i := 1; i <= 6000; i++ {
			s.Commit(history.Entry{HashedPC: uint32(r.Intn(alphabet)), Taken: r.Bool(0.5), NonBiased: r.Bool(0.6)})
			if i%500 != 0 && (i < 2046 || i > 2050) {
				continue
			}
			var e state.Enc
			s.SaveState(&e)
			if err := loadEnc(e, NewSegmented(bounds, 8).LoadState); err != nil {
				t.Fatalf("alphabet %d, %d commits: %v", alphabet, i, err)
			}
		}
	}
}

// TestSegmentedLoadRejectsTamperedSegments edits a trained segmented
// stack's saved state one way at a time and checks each load fails as
// corrupt. Every edit keeps each segment's entries within its slots.
func TestSegmentedLoadRejectsTamperedSegments(t *testing.T) {
	bounds := []int{4, 16, 64, 256}
	s := NewSegmented(bounds, 4)
	r := rng.New(7)
	for i := 0; i < 1000; i++ {
		s.Commit(history.Entry{HashedPC: uint32(r.Intn(40) + 1), Taken: r.Bool(0.5), NonBiased: r.Bool(0.6)})
	}
	seg := -1
	for i := 0; i < s.Segments() && seg < 0; i++ {
		if s.SegmentLen(i) >= 2 {
			seg = i
		}
	}
	if seg < 0 {
		t.Fatal("no segment holds two entries")
	}
	for _, tc := range []struct {
		name   string
		tamper func(c *savedSegmented)
	}{
		{"none", func(*savedSegmented) {}},
		{"entries swapped", func(c *savedSegmented) {
			g := c.segs[seg]
			g[0], g[1] = g[1], g[0]
		}},
		{"pc changed", func(c *savedSegmented) { c.segs[seg][0].pc ^= 4 }},
		{"seq past the counter", func(c *savedSegmented) { c.segs[seg][0].seq = c.seq + 1 }},
		{"every outcome flipped", func(c *savedSegmented) {
			for _, g := range c.segs {
				for j := range g {
					g[j].taken = !g[j].taken
				}
			}
		}},
		{"ring fill", func(c *savedSegmented) { c.seq = uint64(s.Ring().Cap()) - 1 }},
	} {
		c := saveSegmented(s)
		tc.tamper(&c)
		err := loadEnc(c.encode(s.Ring()), NewSegmented(bounds, 4).LoadState)
		if tc.name == "none" {
			if err != nil {
				t.Fatalf("untampered copy: %v", err)
			}
		} else if !errors.Is(err, state.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// savedSegmented is a Segmented's snapshot fields apart from its ring,
// in the form SaveState writes them, for tests to edit.
type savedSegmented struct {
	seq  uint64
	segs [][]savedEntry
}

type savedEntry struct {
	pc    uint64
	taken bool
	seq   uint64
}

func saveSegmented(s *Segmented) savedSegmented {
	c := savedSegmented{seq: s.seq, segs: make([][]savedEntry, s.Segments())}
	for i := range c.segs {
		for j := 0; j < s.SegmentLen(i); j++ {
			e, _ := s.SegmentEntry(i, j)
			c.segs[i] = append(c.segs[i], savedEntry{e.PC, e.Taken, s.seq - e.Dist})
		}
	}
	return c
}

// encode writes c with ring in SaveState's layout.
func (c savedSegmented) encode(ring *history.Ring) state.Enc {
	var e state.Enc
	e.U64(c.seq)
	ring.SaveState(&e)
	e.U32(uint32(len(c.segs)))
	for _, g := range c.segs {
		e.U32(uint32(len(g)))
		for _, x := range g {
			e.U64(x.pc)
			e.Bool(x.taken)
			e.U64(x.seq)
		}
	}
	return e
}

// loadEnc runs load over an encoder's payload as the one section of a
// snapshot, so tests decode exactly what predictors would, and returns
// the snapshot's one Err check.
func loadEnc(e state.Enc, load func(*state.Dec)) error {
	s := state.New("t", 0)
	*s.Section("x") = e
	load(s.Dec("x"))
	return s.Err()
}
