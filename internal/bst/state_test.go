package bst

import (
	"bytes"
	"errors"
	"testing"

	"bfbp/internal/state"
)

// loadClassifier encodes fill as a snapshot section, decodes it into
// c and runs the install only if the snapshot's one Err check passes.
func loadClassifier(t *testing.T, fill func(*state.Enc), c Classifier) error {
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
	install := LoadClassifier(snap.Dec("bst"), c)
	if err := snap.Err(); err != nil {
		return err
	}
	install()
	return nil
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
		err := loadClassifier(t, func(e *state.Enc) {
			e.String(KindOf(dst))
			e.U32(n)
			for pc := uint64(0); pc < 10; pc++ {
				e.U64(pc)
				e.U8(uint8(NonBiased))
			}
		}, dst)
		if !errors.Is(err, state.ErrCorrupt) {
			t.Fatalf("count %d over 10 entries: got %v, want ErrCorrupt", n, err)
		}
		if len(dst.class) != 1 || dst.Lookup(0x1000) != Taken {
			t.Fatalf("count %d: failed load changed the oracle", n)
		}
	}
	err := loadClassifier(t, func(e *state.Enc) {
		if err := SaveClassifier(e, src); err != nil {
			t.Fatal(err)
		}
	}, dst)
	if err != nil {
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

// TestLoadRejectsOutOfRangeState checks that a BST state byte beyond
// NonBiased fails as corrupt and leaves the classifier untouched, and
// that an honest snapshot still round-trips.
func TestLoadRejectsOutOfRangeState(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Classifier
		bad  func(raw []byte) // edits the payload after the kind tag
	}{
		{"fsm2 state", func() Classifier { return NewTable(64) }, func(raw []byte) { raw[4] = byte(NonBiased) + 1 }},
	} {
		src, dst := tc.mk(), tc.mk()
		for pc := uint64(0); pc < 64*4; pc += 4 {
			src.Update(pc, pc%12 == 0)
			src.Update(pc, true)
		}
		var before, enc state.Enc
		if err := SaveClassifier(&before, dst); err != nil {
			t.Fatal(err)
		}
		if err := SaveClassifier(&enc, src); err != nil {
			t.Fatal(err)
		}
		raw := append([]byte(nil), enc.Data()...)
		tag := 4 + len(KindOf(src))
		tc.bad(raw[tag:])
		err := loadClassifier(t, func(e *state.Enc) {
			for _, b := range raw {
				e.U8(b)
			}
		}, dst)
		if !errors.Is(err, state.ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
		var after state.Enc
		if err := SaveClassifier(&after, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Data(), after.Data()) {
			t.Fatalf("%s: failed load changed the classifier", tc.name)
		}
		if err := loadClassifier(t, func(e *state.Enc) {
			for _, b := range enc.Data() {
				e.U8(b)
			}
		}, dst); err != nil {
			t.Fatalf("%s: honest snapshot: %v", tc.name, err)
		}
	}
}
