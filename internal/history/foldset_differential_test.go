package history

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"bfbp/internal/rng"
	"bfbp/internal/state"
)

// bfNeuralLengths is BF-Neural's fold bank: one 12-bit register per
// length, dense for recent history, geometric out to 2048 branches.
var bfNeuralLengths = []int{1, 2, 3, 4, 6, 8, 11, 16, 22, 32, 45, 64, 91, 128,
	181, 256, 362, 512, 724, 1024, 1448, 2048}

// islTage15Tables is isl-tage-15's table geometry: {history length,
// LogEntries, TagBits} per tagged table.
var islTage15Tables = [][3]int{{3, 11, 7}, {8, 10, 7}, {12, 10, 8}, {17, 10, 8},
	{33, 10, 9}, {35, 12, 10}, {67, 12, 10}, {97, 12, 11}, {138, 11, 12},
	{195, 11, 12}, {330, 10, 13}, {517, 10, 14}, {1193, 10, 14},
	{1741, 9, 15}, {1930, 9, 15}}

// islTage15Regs is isl-tage-15's fold bank: per table the index fold at
// LogEntries bits and the two tag folds at TagBits and TagBits-1.
func islTage15Regs() []FoldReg {
	var regs []FoldReg
	for _, tc := range islTage15Tables {
		regs = append(regs, FoldReg{tc[0], tc[1]}, FoldReg{tc[0], tc[2]}, FoldReg{tc[0], max(tc[2]-1, 1)})
	}
	return regs
}

// TestFoldSetDifferential drives a fold bank through two ring wraps and
// checks every register against the FoldBits reference on a maintained
// bit vector after each push. This pins the windowed evicted-bit fast
// path (recent-word reads for short registers, one 64-push window per
// deep length) to the group-XOR definition, including warmup, the first
// window refill, and ring wraparound, for BF-Neural's uniform bank and
// isl-tage-15's mixed-width bank of three registers per length.
func TestFoldSetDifferential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		regs  []FoldReg
		depth int
	}{
		{"bf-neural", FoldRegs(bfNeuralLengths, 12), 2048},
		{"isl-tage-15", islTage15Regs(), 1930},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewFoldSet(tc.regs, tc.depth)
			r := rng.New(0xD1FF)
			var hist []bool // index 0 = newest
			for step := 0; step < 2*s.Ring().Cap()+100; step++ {
				taken := r.Uint64()&1 != 0
				s.Push(Entry{HashedPC: uint32(r.Uint64()), Taken: taken})
				hist = append([]bool{taken}, hist...)
				for i, reg := range tc.regs {
					want := FoldBits(hist[:min(reg.Len, len(hist))], reg.Width)
					if s.FoldExact(i) != want {
						t.Fatalf("step %d register %d (%+v): fold %#x, reference %#x",
							step, i, reg, s.FoldExact(i), want)
					}
				}
			}
		})
	}
}

// TestFoldSetMatchesNaive checks a bank of register shapes against the
// naive fold over 3000 pushes: widths above the length, a length of
// one, and width 13 over length 12.
func TestFoldSetMatchesNaive(t *testing.T) {
	regs := []FoldReg{{1, 1}, {1, 4}, {5, 3}, {7, 7}, {12, 13}, {16, 7}, {64, 10}, {130, 11}, {1000, 12}}
	s := NewFoldSet(regs, 1000)
	r := rng.New(77)
	var hist []bool // hist[0] = newest
	for step := 0; step < 3000; step++ {
		b := r.Bool(0.5)
		s.Push(Entry{Taken: b})
		hist = append([]bool{b}, hist...)
		if len(hist) > 1008 {
			hist = hist[:1008]
		}
		for i, reg := range regs {
			if got, want := s.FoldExact(i), naiveFold(hist, reg.Len, reg.Width); got != want {
				t.Fatalf("register %+v step %d: fold = %#x, naive = %#x", reg, step, got, want)
			}
		}
	}
}

// TestFoldSetProperty checks random banks of lengths 1..100 and widths
// 1..16 against the naive fold.
func TestFoldSetProperty(t *testing.T) {
	f := func(seed uint64, shape [4]uint16) bool {
		regs := make([]FoldReg, len(shape))
		for i, v := range shape {
			regs[i] = FoldReg{Len: int(v%100) + 1, Width: int(v>>8%16) + 1}
		}
		sort.Slice(regs, func(i, j int) bool { return regs[i].Len < regs[j].Len })
		s := NewFoldSet(regs, 100)
		r := rng.New(seed)
		var hist []bool
		for step := 0; step < 300; step++ {
			b := r.Bool(0.5)
			s.Push(Entry{Taken: b})
			hist = append([]bool{b}, hist...)
			for i, reg := range regs {
				if s.FoldExact(i) != naiveFold(hist, reg.Len, reg.Width) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFoldSetResumeMidWindow snapshots a mixed-width fold set
// mid-stream (between window refills), restores it into a fresh
// instance, and checks the two stay bit-identical over further pushes —
// the property snapshot resume relies on, given that the window cursor
// is not serialized.
func TestFoldSetResumeMidWindow(t *testing.T) {
	regs := []FoldReg{{3, 9}, {3, 4}, {16, 9}, {91, 9}, {91, 5}, {300, 9}, {1000, 9}, {1000, 13}}
	mk := func() *FoldSet { return NewFoldSet(regs, 2046) }
	a := mk()
	r := rng.New(0xBEE5)
	for i := 0; i < 1500+37; i++ { // 37: land mid-window
		a.Push(Entry{Taken: r.Uint64()&1 != 0})
	}
	snap := state.New("t", 0)
	a.SaveState(snap.Section("fs"))
	d, err := snap.Dec("fs")
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	b := mk()
	if err := b.LoadState(d); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for i := 0; i < 500; i++ {
		e := Entry{Taken: r.Uint64()&1 != 0}
		a.Push(e)
		b.Push(e)
		for j := range regs {
			if a.FoldExact(j) != b.FoldExact(j) {
				t.Fatalf("push %d register %d: original %#x, restored %#x",
					i, j, a.FoldExact(j), b.FoldExact(j))
			}
		}
	}
}

// TestFoldSetLoadRejectsDivergentRegister flips one bit of one saved
// register, inside and beyond its width, and checks the load fails as
// corrupt and leaves the set as it was: a register that disagrees with
// the restored ring would make every later prediction differ from the
// run that saved it.
func TestFoldSetLoadRejectsDivergentRegister(t *testing.T) {
	regs := FoldRegs([]int{5, 40, 200}, 10)
	s := NewFoldSet(regs, 200)
	r := rng.New(9)
	for i := 0; i < 700; i++ {
		s.Push(Entry{HashedPC: uint32(r.Uint64()), Taken: r.Bool(0.5)})
	}
	save := func() []byte {
		snap := state.New("t", 0)
		s.SaveState(snap.Section("fs"))
		d, err := snap.Dec("fs")
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, d.Remaining())
		for i := range b {
			b[i] = d.U8()
		}
		return b
	}
	before := save()
	for reg := range regs {
		for _, bit := range []int{0, 9, 10, 63} {
			t.Run(fmt.Sprintf("register%d/bit%d", reg, bit), func(t *testing.T) {
				img := append([]byte(nil), before...)
				off := len(img) - 8*(len(regs)-reg) + bit/8
				img[off] ^= 1 << (bit % 8)
				snap := state.New("t", 0)
				e := snap.Section("fs")
				for _, c := range img {
					e.U8(c)
				}
				d, err := snap.Dec("fs")
				if err != nil {
					t.Fatal(err)
				}
				if err := s.LoadState(d); !errors.Is(err, state.ErrCorrupt) {
					t.Fatalf("load of a flipped register: err = %v, want ErrCorrupt", err)
				}
				if !bytes.Equal(save(), before) {
					t.Fatal("failed load changed the fold set")
				}
			})
		}
	}
}

// BenchmarkFoldSetPush times one commit into isl-tage-15's and
// BF-Neural's fold banks.
func BenchmarkFoldSetPush(b *testing.B) {
	for _, bc := range []struct {
		name  string
		regs  []FoldReg
		depth int
	}{
		{"isl-tage-15", islTage15Regs(), 1930},
		{"bf-neural", FoldRegs(bfNeuralLengths, 12), 2048},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewFoldSet(bc.regs, bc.depth)
			r := rng.New(1)
			entries := make([]Entry, 4096)
			for i := range entries {
				entries[i] = Entry{HashedPC: uint32(r.Uint64()), Taken: r.Bool(0.6)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Push(entries[i&4095])
			}
		})
	}
}
