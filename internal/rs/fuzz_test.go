package rs

import (
	"bytes"
	"testing"

	"bfbp/internal/history"
	"bfbp/internal/rng"
	"bfbp/internal/state"
)

// FuzzStack drives Stack and the shift-register reference model in
// lockstep over a geometry and Tick/Push stream drawn from seed: a depth
// in [1, 160], a pos_hist width in [1, 16] bits, a PC alphabet of 2 to
// 2^14 addresses, and a share of pushes among the ticks. After every
// step it compares Len, every At and the View. At random points, and at
// the end, the snapshot bytes must equal the reference's and a SaveState
// → LoadState → SaveState round trip must keep them; the run then
// continues on the loaded copy.
func FuzzStack(f *testing.F) {
	for seed := uint64(1); seed <= 12; seed++ {
		f.Add(seed, uint16(4000))
	}
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16) {
		r := rng.New(seed)
		depth, distBits := 1+r.Intn(160), 1+r.Intn(16)
		alphabet := 2 + r.Intn(1<<(1+r.Intn(14))-1)
		pushes := r.Float64()
		ref := newRefStack(depth, distBits)
		s := NewStack(depth, distBits)
		for step := 1; step <= int(steps); step++ {
			// A push follows its branch's tick, so a push without one
			// models a second push at one position.
			if r.Bool(0.9) {
				ref.Tick()
				s.Tick()
			}
			if r.Bool(pushes) {
				pc, taken := uint32(r.Intn(alphabet)), r.Bool(0.5)
				ref.Push(pc, taken)
				s.Push(pc, taken)
			}
			checkStackEqual(t, step, ref, s)
			if step != int(steps) && r.Intn(512) != 0 {
				continue
			}
			var we, ge state.Enc
			ref.SaveState(&we)
			s.SaveState(&ge)
			if !bytes.Equal(ge.Data(), we.Data()) {
				t.Fatalf("depth %d step %d: snapshot differs from the reference's", depth, step)
			}
			loaded := NewStack(depth, distBits)
			if err := loadEnc(ge, loaded.LoadState); err != nil {
				t.Fatalf("depth %d step %d: %v", depth, step, err)
			}
			var le state.Enc
			loaded.SaveState(&le)
			if !bytes.Equal(le.Data(), ge.Data()) {
				t.Fatalf("depth %d step %d: save → load → save changed the bytes", depth, step)
			}
			s = loaded
		}
	})
}

// FuzzSegmented drives Segmented and the per-segment reference model in
// lockstep over a geometry and commit stream drawn from seed: ascending
// bounds (the first may be 1) for up to 20 segments no deeper than
// 4096, a segment size in [1, 64], and a PC alphabet of 2 to 2^32
// addresses. After every commit it compares every segment's length,
// packed words (through Words) and the entries at slots 0, the last,
// one past it and one at random; checking every slot walks the ring
// once per slot, which is too slow here. At random points, and at the end, the
// snapshot bytes must equal the reference's, which covers every entry,
// and a SaveState → LoadState → SaveState round trip must keep them;
// the run then continues on the loaded copy. steps is cut to twice the
// deepest bound plus 256.
func FuzzSegmented(f *testing.F) {
	for seed := uint64(1); seed <= 12; seed++ {
		f.Add(seed, uint16(6000))
	}
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16) {
		r := rng.New(seed)
		bounds := []int{1 + r.Intn(1<<r.Intn(7))}
		for n, scale := 1+r.Intn(20), 1<<r.Intn(10); len(bounds) <= n; {
			next := bounds[len(bounds)-1] + 1 + r.Intn(scale)
			if next > 4096 {
				break
			}
			bounds = append(bounds, next)
		}
		if len(bounds) < 2 {
			bounds = append(bounds, bounds[0]+1)
		}
		segSize := 1 + r.Intn(64)
		pcMask := uint32(1)<<(1+r.Intn(32)) - 1
		nonBiased := r.Float64()
		n := min(int(steps), 2*bounds[len(bounds)-1]+256)

		ref := newRefSegmented(bounds, segSize)
		s := NewSegmented(bounds, segSize)
		for step := 1; step <= n; step++ {
			e := history.Entry{
				HashedPC:  uint32(r.Uint64()) & pcMask,
				Taken:     r.Bool(0.5),
				NonBiased: r.Bool(nonBiased),
			}
			ref.Commit(e)
			s.Commit(e)
			taken, addrs := s.Words()
			for i := 0; i < s.Segments(); i++ {
				ln := ref.segs[i].n
				if got := s.SegmentLen(i); got != ln {
					t.Fatalf("%v×%d step %d: segment %d len %d, want %d", bounds, segSize, step, i, got, ln)
				}
				wt, wp := ref.words(i)
				if taken[i] != wt || addrs[i] != wp {
					t.Fatalf("%v×%d step %d: segment %d words %#x/%#x, want %#x/%#x", bounds, segSize, step, i, taken[i], addrs[i], wt, wp)
				}
				for _, j := range []int{0, ln - 1, ln, r.Intn(segSize)} {
					want, wok := ref.SegmentEntry(i, j)
					if got, ok := s.SegmentEntry(i, j); got != want || ok != wok {
						t.Fatalf("%v×%d step %d: segment %d slot %d = %+v/%v, want %+v/%v", bounds, segSize, step, i, j, got, ok, want, wok)
					}
				}
			}
			if step != n && r.Intn(1024) != 0 {
				continue
			}
			var we, ge state.Enc
			ref.SaveState(&we)
			s.SaveState(&ge)
			if !bytes.Equal(ge.Data(), we.Data()) {
				t.Fatalf("%v×%d step %d: snapshot differs from the reference's", bounds, segSize, step)
			}
			loaded := NewSegmented(bounds, segSize)
			if err := loadEnc(ge, loaded.LoadState); err != nil {
				t.Fatalf("%v×%d step %d: %v", bounds, segSize, step, err)
			}
			var le state.Enc
			loaded.SaveState(&le)
			if !bytes.Equal(le.Data(), ge.Data()) {
				t.Fatalf("%v×%d step %d: save → load → save changed the bytes", bounds, segSize, step)
			}
			s = loaded
		}
	})
}
