package bst

import (
	"bytes"
	"errors"
	"testing"

	"bfbp/internal/state"
)

// classifierDec encodes fill as a snapshot section and returns a decoder
// over it.
func classifierDec(t *testing.T, fill func(*state.Enc)) *state.Dec {
	t.Helper()
	s := state.New("bst-test", 1)
	fill(s.Section("bst"))
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := state.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.Dec("bst")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestLoadOracleRejectsForgedCount checks that an oracle snapshot whose
// entry count exceeds what its payload can hold fails as corrupt before
// any map is sized from the count, and leaves the oracle untouched; an
// honest snapshot still round-trips.
func TestLoadOracleRejectsForgedCount(t *testing.T) {
	src := NewOracle()
	for pc := uint64(0); pc < 40; pc += 4 {
		src.Observe(pc, true)
		src.Observe(pc, pc%8 == 0)
	}
	dst := NewOracle()
	dst.Observe(0x1000, true)
	for _, n := range []uint32{11, 1 << 20, 1<<32 - 1} {
		d := classifierDec(t, func(e *state.Enc) {
			e.String(KindOf(dst))
			e.U32(n)
			for pc := uint64(0); pc < 10; pc++ {
				e.U64(pc)
				e.U8(uint8(NonBiased))
			}
		})
		if err := LoadClassifier(d, dst); !errors.Is(err, state.ErrCorrupt) {
			t.Fatalf("count %d over 10 entries: got %v, want ErrCorrupt", n, err)
		}
		if len(dst.class) != 1 || dst.Lookup(0x1000) != Taken {
			t.Fatalf("count %d: failed load changed the oracle", n)
		}
	}
	d := classifierDec(t, func(e *state.Enc) {
		if err := SaveClassifier(e, src); err != nil {
			t.Fatal(err)
		}
	})
	if err := LoadClassifier(d, dst); err != nil {
		t.Fatal(err)
	}
	if len(dst.class) != len(src.class) {
		t.Fatalf("round trip holds %d PCs, want %d", len(dst.class), len(src.class))
	}
	for pc, st := range src.class {
		if dst.class[pc] != st {
			t.Fatalf("pc %#x: got %v, want %v", pc, dst.class[pc], st)
		}
	}
}
