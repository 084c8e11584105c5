package state

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// sample builds a snapshot exercising every primitive the codec offers.
func sample() *Snapshot {
	s := New("demo-pred", 0xDEADBEEFCAFE)
	e := s.Section("scalars")
	e.U8(7)
	e.U16(0x1234)
	e.U32(0xDEADBEEF)
	e.U64(1<<63 | 5)
	e.I8(-3)
	e.I32(-70000)
	e.I64(-1 << 40)
	e.Int(-42)
	e.Bool(true)
	e.Bool(false)
	e.String("hello")
	e.Bytes([]byte{0, 1, 2})
	v := s.Section("vectors")
	v.I8s([]int8{-1, 0, 1, 127, -128})
	v.I32s([]int32{-5, 6})
	v.U32s([]uint32{9, 10, 11})
	v.U64s([]uint64{1 << 50})
	v.Bools([]bool{true, false, true, true, false, false, true, false, true})
	s.Section("empty")
	return s
}

func encode(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	raw := encode(t, sample())
	s, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if s.Predictor != "demo-pred" || s.ConfigHash != 0xDEADBEEFCAFE {
		t.Fatalf("identity: %q %#x", s.Predictor, s.ConfigHash)
	}
	if got := strings.Join(s.Sections(), ","); got != "scalars,vectors,empty" {
		t.Fatalf("section order: %s", got)
	}
	d := s.Dec("scalars")
	if d.U8() != 7 || d.U16() != 0x1234 || d.U32() != 0xDEADBEEF || d.U64() != 1<<63|5 {
		t.Fatal("unsigned scalars mismatch")
	}
	if d.I8() != -3 || d.I32() != -70000 || d.I64() != -1<<40 || d.Int() != -42 {
		t.Fatal("signed scalars mismatch")
	}
	if d.Bool() != true || d.Bool() != false {
		t.Fatal("bools mismatch")
	}
	if d.String() != "hello" || !bytes.Equal(d.Bytes(3), []byte{0, 1, 2}) {
		t.Fatal("string/bytes mismatch")
	}
	if d.Remaining() != 0 {
		t.Fatalf("scalars leftover %d", d.Remaining())
	}
	vd := s.Dec("vectors")
	i8 := vd.I8s(5)
	if i8[3] != 127 || i8[4] != -128 {
		t.Fatalf("I8s: %v", i8)
	}
	if i32 := vd.I32s(2); i32[0] != -5 {
		t.Fatalf("I32s: %v", i32)
	}
	if u32 := vd.U32s(3); u32[2] != 11 {
		t.Fatalf("U32s: %v", u32)
	}
	if u64 := vd.U64s(1); u64[0] != 1<<50 {
		t.Fatalf("U64s: %v", u64)
	}
	want := []bool{true, false, true, true, false, false, true, false, true}
	bs := vd.Bools(len(want))
	for i := range want {
		if bs[i] != want[i] {
			t.Fatalf("Bools[%d] = %v", i, bs[i])
		}
	}
	s.Dec("empty")
	if err := s.Err(); err != nil {
		t.Fatalf("Err after reading every section: %v", err)
	}
}

// TestByteStable pins the core format contract: decoding a snapshot and
// re-encoding it reproduces the exact original bytes.
func TestByteStable(t *testing.T) {
	raw := encode(t, sample())
	s, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	again := encode(t, s)
	if !bytes.Equal(raw, again) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(raw), len(again))
	}
}

func TestReadHeader(t *testing.T) {
	raw := encode(t, sample())
	s, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if s.Predictor != "demo-pred" || s.ConfigHash != 0xDEADBEEFCAFE || len(s.Sections()) != 3 {
		t.Fatalf("header: %q %#x %v", s.Predictor, s.ConfigHash, s.Sections())
	}
}

func TestVerify(t *testing.T) {
	raw := encode(t, sample())
	if _, err := Load(bytes.NewReader(raw), "demo-pred", 0xDEADBEEFCAFE); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := Load(bytes.NewReader(raw), "other", 0xDEADBEEFCAFE); !errors.Is(err, ErrPredictorMismatch) {
		t.Fatalf("want ErrPredictorMismatch, got %v", err)
	}
	if _, err := Load(bytes.NewReader(raw), "demo-pred", 1); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("want ErrConfigMismatch, got %v", err)
	}
}

func TestTypedErrors(t *testing.T) {
	raw := encode(t, sample())

	// Truncation at every prefix length fails with a typed error and
	// never panics.
	for n := 0; n < len(raw); n++ {
		_, err := Read(bytes.NewReader(raw[:n]))
		if err == nil {
			t.Fatalf("truncated to %d bytes decoded successfully", n)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d: untyped error %v", n, err)
		}
	}

	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}

	ver := append([]byte(nil), raw...)
	ver[4], ver[5] = 0xFF, 0x7F
	if _, err := Read(bytes.NewReader(ver)); !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}

	trail := append(append([]byte(nil), raw...), 0xAB)
	if _, err := Read(bytes.NewReader(trail)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt on trailing bytes, got %v", err)
	}
}

// read decodes raw, runs load over it and returns Snapshot.Err.
func read(t *testing.T, raw []byte, load func(*Snapshot)) error {
	t.Helper()
	s, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	load(s)
	return s.Err()
}

// readAll reads every section of sample() as it was written.
func readAll(s *Snapshot) {
	d := s.Dec("scalars")
	d.U8()
	d.U16()
	d.U32()
	d.U64()
	d.I8()
	d.I32()
	d.I64()
	d.Int()
	d.Bool()
	d.Bool()
	_ = d.String()
	d.Bytes(3)
	v := s.Dec("vectors")
	v.I8s(5)
	v.I32s(2)
	v.U32s(3)
	v.U64s(1)
	v.Bools(9)
	s.Dec("empty")
}

func TestMissingSection(t *testing.T) {
	err := read(t, encode(t, sample()), func(s *Snapshot) {
		readAll(s)
		if d := s.Dec("nope"); d.U8() != 0 || d.Remaining() != 0 {
			t.Fatal("a missing section's cursor read a value")
		}
	})
	if !errors.Is(err, ErrNoSection) {
		t.Fatalf("want ErrNoSection, got %v", err)
	}
}

// TestLoadRule pins what Snapshot.Err reports: nothing after every
// section is read to its end, and ErrCorrupt for a count that is not
// the instance's length, for bytes left over, for a section never read
// and for Corruptf.
func TestLoadRule(t *testing.T) {
	raw := encode(t, sample())
	if err := read(t, raw, readAll); err != nil {
		t.Fatalf("clean read: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		load       func(*Snapshot)
	}{
		{"length mismatch", `section "vectors": 5 values where the instance holds 4`, func(s *Snapshot) {
			readAll(s)
			v := s.Dec("vectors")
			v.off = 0
			if got := v.I8s(4); len(got) != 4 || got[0] != 0 {
				t.Errorf("mismatched I8s returned %v, want 4 zeros", got)
			}
		}},
		{"leftover bytes", `section "scalars" has 3 bytes left over`, func(s *Snapshot) {
			readAll(s)
			s.Dec("scalars").off -= 3
		}},
		{"unread section", `section "empty" was never read`, func(s *Snapshot) {
			readAll(s)
			s.sections[2].dec = nil
		}},
		{"Corruptf", `section "vectors": weight 9 outside [0, 3]`, func(s *Snapshot) {
			readAll(s)
			s.Dec("vectors").Corruptf("weight %d outside [%d, %d]", 9, 0, 3)
		}},
	} {
		err := read(t, raw, tc.load)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want ErrCorrupt containing %q", tc.name, err, tc.want)
		}
	}
}

// TestErrorSticksAcrossSections checks that the first failure in one
// section stops the reads of every other section and is the one Err
// reports, and that repeated Dec calls share one cursor.
func TestErrorSticksAcrossSections(t *testing.T) {
	err := read(t, encode(t, sample()), func(s *Snapshot) {
		if s.Dec("scalars") != s.Dec("scalars") {
			t.Fatal("two cursors for one section")
		}
		s.Dec("scalars").I8s(7) // its first four bytes, read as a count, are not 7
		v := s.Dec("vectors")
		if got := v.I8s(5); got[3] != 0 {
			t.Fatalf("read %v after an earlier section failed", got)
		}
		v.Corruptf("a later failure")
		if v.Remaining() == 0 {
			t.Fatal("the failed read consumed the other section")
		}
	})
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), `section "scalars"`) {
		t.Fatalf("got %v, want the scalars section's ErrCorrupt", err)
	}
}

func TestDecSticky(t *testing.T) {
	var e Enc
	e.U8(1)
	d := newDec(e.buf)
	_ = d.U64() // runs past the end
	if !errors.Is(*d.err, ErrTruncated) {
		t.Fatalf("want sticky ErrTruncated, got %v", *d.err)
	}
	// Every accessor after an error returns zero values without
	// touching the remaining input.
	if d.U8() != 0 || d.String() != "" || len(d.I8s(0)) != 0 || d.Bool() || d.Remaining() != 1 {
		t.Fatal("post-error accessor returned non-zero")
	}
}

func TestBoolAndPadValidation(t *testing.T) {
	d := newDec([]byte{2})
	d.Bool()
	if !errors.Is(*d.err, ErrCorrupt) {
		t.Fatalf("bool byte 2: want ErrCorrupt, got %v", *d.err)
	}
	var e Enc
	e.Bools([]bool{true, true, false})
	e.buf[len(e.buf)-1] |= 1 << 7 // set a pad bit
	d = newDec(e.buf)
	d.Bools(3)
	if !errors.Is(*d.err, ErrCorrupt) {
		t.Fatalf("pad bits: want ErrCorrupt, got %v", *d.err)
	}
}

func TestHashDeterminism(t *testing.T) {
	mk := func() uint64 {
		h := NewHash("kind")
		h.Int(42)
		h.Bool(true)
		h.String("classifier")
		h.Ints([]int{1, 2, 3})
		h.U64(99)
		return h.Sum()
	}
	if mk() != mk() {
		t.Fatal("hash not deterministic")
	}
	if NewHash("a").Sum() == NewHash("b").Sum() {
		t.Fatal("kind tag does not affect hash")
	}
	ha, hb := NewHash("k"), NewHash("k")
	ha.Int(1)
	hb.Int(2)
	if ha.Sum() == hb.Sum() {
		t.Fatal("field value does not affect hash")
	}
}

// FuzzRead feeds arbitrary bytes through the decoder: any outcome is
// acceptable except a panic or an untyped error, and every successful
// decode must be byte-stable.
func FuzzRead(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("bfst"))
	f.Add(encodeForFuzz(sample()))
	trunc := encodeForFuzz(sample())
	f.Add(trunc[:len(trunc)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			for _, typed := range []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrCorrupt} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted input is not byte-stable (%d in, %d out)", len(data), buf.Len())
		}
	})
}

func encodeForFuzz(s *Snapshot) []byte {
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

var _ io.WriterTo = (*Snapshot)(nil)
