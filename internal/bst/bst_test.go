package bst

import (
	"errors"
	"testing"
	"testing/quick"

	"bfbp/internal/trace"
)

func TestTableFSMTransitions(t *testing.T) {
	b := NewTable(16)
	pc := uint64(3)
	if b.Lookup(pc) != NotFound {
		t.Fatal("fresh entry should be NotFound")
	}
	b.Update(pc, true)
	if b.Lookup(pc) != Taken {
		t.Fatal("first taken outcome should move to Taken")
	}
	b.Update(pc, true)
	if b.Lookup(pc) != Taken {
		t.Fatal("repeated taken should stay Taken")
	}
	b.Update(pc, false)
	if b.Lookup(pc) != NonBiased {
		t.Fatal("contrary outcome should move to NonBiased")
	}
	b.Update(pc, true)
	b.Update(pc, false)
	if b.Lookup(pc) != NonBiased {
		t.Fatal("NonBiased must be terminal for the 2-bit FSM")
	}
}

func TestTableNotTakenPath(t *testing.T) {
	b := NewTable(16)
	b.Update(7, false)
	if b.Lookup(7) != NotTaken {
		t.Fatal("first not-taken outcome should move to NotTaken")
	}
	b.Update(7, true)
	if b.Lookup(7) != NonBiased {
		t.Fatal("contrary outcome should move to NonBiased")
	}
}

func TestTableAliasing(t *testing.T) {
	b := NewTable(8)
	// PCs 1 and 9 share entry 1 in an 8-entry direct-mapped table.
	b.Update(1, true)
	if b.Lookup(9) != Taken {
		t.Fatal("aliased PC should observe the shared entry state")
	}
	b.Update(9, false)
	if b.Lookup(1) != NonBiased {
		t.Fatal("aliasing should be able to force NonBiased")
	}
}

func TestTablePowerOfTwoPanic(t *testing.T) {
	for _, n := range []int{0, -4, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%d) did not panic", n)
				}
			}()
			NewTable(n)
		}()
	}
}

// Property: for a dedicated entry, the FSM reports a biased state iff all
// outcomes so far agree, and NonBiased iff both directions were seen.
func TestTableMatchesSpecProperty(t *testing.T) {
	f := func(outcomes []bool) bool {
		b := NewTable(2) // pc 0 only; single dedicated entry
		sawT, sawNT := false, false
		for _, taken := range outcomes {
			b.Update(0, taken)
			if taken {
				sawT = true
			} else {
				sawNT = true
			}
			got := b.Lookup(0)
			switch {
			case sawT && sawNT:
				if got != NonBiased {
					return false
				}
			case sawT:
				if got != Taken {
					return false
				}
			case sawNT:
				if got != NotTaken {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableStorage(t *testing.T) {
	if got := NewTable(16384).StorageBits(); got != 32768 {
		t.Fatalf("16384-entry BST = %d bits, want 32768 (paper: 2048 bytes at 8192 entries)", got)
	}
	if got := NewTable(8192).StorageBits(); got != 16384 {
		t.Fatalf("8192-entry BST = %d bits, want 16384", got)
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{NotFound: "NotFound", Taken: "Taken", NotTaken: "NotTaken", NonBiased: "NonBiased", State(9): "Invalid"}
	for s, str := range want {
		if s.String() != str {
			t.Fatalf("State(%d).String() = %q, want %q", s, s.String(), str)
		}
	}
}

func TestOracleClassification(t *testing.T) {
	o := NewOracle()
	o.Observe(1, true)
	o.Observe(1, true)
	o.Observe(2, true)
	o.Observe(2, false)
	o.Observe(3, false)
	if o.Lookup(1) != Taken {
		t.Fatalf("pc1 = %v, want Taken", o.Lookup(1))
	}
	if o.Lookup(2) != NonBiased {
		t.Fatalf("pc2 = %v, want NonBiased", o.Lookup(2))
	}
	if o.Lookup(3) != NotTaken {
		t.Fatalf("pc3 = %v, want NotTaken", o.Lookup(3))
	}
	if o.Lookup(99) != NotFound {
		t.Fatalf("unprofiled pc = %v, want NotFound", o.Lookup(99))
	}
}

// ProfileOracle observes every record of its reader and passes a read
// error through instead of returning a partial profile.
func TestProfileOracle(t *testing.T) {
	recs := trace.Slice{{PC: 1, Taken: true}, {PC: 2, Taken: true}, {PC: 2, Taken: false}, {PC: 3}}
	o, err := ProfileOracle(recs.Stream())
	if err != nil {
		t.Fatal(err)
	}
	for pc, want := range map[uint64]State{1: Taken, 2: NonBiased, 3: NotTaken, 4: NotFound} {
		if got := o.Lookup(pc); got != want {
			t.Errorf("pc%d = %v, want %v", pc, got, want)
		}
	}
	boom := errors.New("boom")
	if o, err := ProfileOracle(failingReader{boom}); !errors.Is(err, boom) || o != nil {
		t.Fatalf("ProfileOracle on a failing reader = %v, %v; want nil, %v", o, err, boom)
	}
}

type failingReader struct{ err error }

func (r failingReader) Read() (trace.Record, error) { return trace.Record{}, r.err }

func TestOracleUpdateIsNoop(t *testing.T) {
	o := NewOracle()
	o.Observe(1, true)
	o.Update(1, false) // dynamic outcomes must not change a static profile
	if o.Lookup(1) != Taken {
		t.Fatal("Oracle.Update changed classification")
	}
}

func TestOracleNoAliasing(t *testing.T) {
	// Unlike the hardware tables the oracle is exact: PCs never alias.
	o := NewOracle()
	o.Observe(1, true)
	o.Observe(1+8192, false)
	if o.Lookup(1) != Taken || o.Lookup(1+8192) != NotTaken {
		t.Fatal("oracle aliased distinct PCs")
	}
}
