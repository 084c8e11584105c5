package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"bfbp/internal/rng"
)

// refReader is the reference model of the BFT1 decoder: the byte-at-a-
// time decoder FileReader's in-place kernel replaced, reading each
// varint with binary.ReadUvarint through io.ByteReader.
type refReader struct {
	r      *bufio.Reader
	prevPC uint64
	prevTg uint64
	began  bool
}

func newRefReader(r io.Reader) *refReader { return &refReader{r: bufio.NewReader(r)} }

func (fr *refReader) Read() (Record, error) {
	if !fr.began {
		var m [4]byte
		if _, err := io.ReadFull(fr.r, m[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return Record{}, ErrBadMagic
			}
			return Record{}, err
		}
		if m != magic {
			return Record{}, ErrBadMagic
		}
		fr.began = true
	}
	dpc, err := binary.ReadUvarint(fr.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: corrupt pc delta: %w", err)
	}
	dtg, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return Record{}, fmt.Errorf("trace: corrupt target delta: %w", refEOFIsCorrupt(err))
	}
	flags, err := fr.r.ReadByte()
	if err != nil {
		return Record{}, fmt.Errorf("trace: corrupt flags: %w", refEOFIsCorrupt(err))
	}
	fr.prevPC += uint64(unzigzag(dpc))
	fr.prevTg += uint64(unzigzag(dtg))
	return Record{
		PC:      fr.prevPC,
		Target:  fr.prevTg,
		Taken:   flags&1 != 0,
		Instret: (flags >> 1) + 1,
	}, nil
}

func refEOFIsCorrupt(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// refEncode is the reference BFT1 encoder: the header, then each record
// as two zigzag varints and the flags byte.
func refEncode(recs Slice) []byte {
	out := append([]byte(nil), magic[:]...)
	var pc, tg uint64
	for _, rec := range recs {
		out = binary.AppendUvarint(out, zigzag(int64(rec.PC-pc)))
		out = binary.AppendUvarint(out, zigzag(int64(rec.Target-tg)))
		flags := byte(rec.Instret-1) << 1
		if rec.Taken {
			flags |= 1
		}
		out = append(out, flags)
		pc, tg = rec.PC, rec.Target
	}
	return out
}

// errClass names the errors.Is class of a decode error.
func errClass(err error) string {
	switch {
	case errors.Is(err, io.EOF):
		return "EOF"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "ErrUnexpectedEOF"
	case errors.Is(err, ErrBadMagic):
		return "ErrBadMagic"
	}
	return "other"
}

// sameErr fails t unless got has want's message and errors.Is class.
func sameErr(t *testing.T, label string, got, want error) {
	t.Helper()
	if got == nil || got.Error() != want.Error() || errClass(got) != errClass(want) {
		t.Fatalf("%s: error %v, reference %v (%s)", label, got, want, errClass(want))
	}
}

// FuzzFileReader feeds arbitrary bytes to the BFT1 decoder and to its
// reference model. Read, and ReadBatch at batch sizes 1, 7 and 4096,
// must yield the reference's records and then its first error (message
// and errors.Is class), and that error again on every later call.
func FuzzFileReader(f *testing.F) {
	// Seed with a valid trace and a few corruptions of it.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 20; i++ {
		_ = w.Write(Record{PC: uint64(0x400000 + i*4), Taken: i%3 == 0, Instret: uint8(i%7 + 1)})
	}
	_ = w.Write(Record{PC: 1 << 63, Target: math.MaxUint64, Instret: 128})
	_ = w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)-12])
	f.Add(valid[:len(valid)-21])
	f.Add(append(append([]byte(nil), valid...), 0x80))
	f.Add([]byte("BFT1"))
	f.Add([]byte("BFT"))
	f.Add([]byte("NOPE"))
	f.Add([]byte("NOPEBFT1\x02\x02\x00"))
	f.Add([]byte{})
	// Overflows: an eleventh varint byte, and a tenth above 1.
	f.Add([]byte("BFT1\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00"))
	f.Add([]byte("BFT1\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02\x00"))
	f.Add([]byte("BFT1\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want Slice
		ref := newRefReader(bytes.NewReader(data))
		var wantErr error
		for wantErr == nil {
			rec, err := ref.Read()
			if err != nil {
				wantErr = err
				break
			}
			if rec.Instret < 1 || rec.Instret > 128 {
				t.Fatalf("decoded out-of-range instret %d", rec.Instret)
			}
			want = append(want, rec)
			if len(want) > len(data)+1 {
				t.Fatalf("decoder yielded more records (%d) than input bytes (%d)", len(want), len(data))
			}
		}
		if wantErr.Error() == "" {
			t.Fatal("empty error message")
		}

		r := NewFileReader(bytes.NewReader(data))
		for i, rec := range want {
			got, err := r.Read()
			if err != nil || got != rec {
				t.Fatalf("Read %d: %+v, %v; reference %+v", i, got, err, rec)
			}
		}
		for k := 0; k < 3; k++ {
			_, err := r.Read()
			sameErr(t, fmt.Sprintf("Read after %d records, call %d", len(want), k), err, wantErr)
		}

		for _, size := range []int{1, 7, 4096} {
			r := NewFileReader(bytes.NewReader(data))
			dst := make([]Record, size)
			var got Slice
			var err error
			for err == nil {
				var n int
				n, err = r.ReadBatch(dst)
				if (n == 0) == (err == nil) {
					t.Fatalf("ReadBatch(%d): n=%d err=%v, want records xor error", size, n, err)
				}
				got = append(got, dst[:n]...)
			}
			checkSame(t, want, got, fmt.Sprintf("ReadBatch(%d)", size))
			sameErr(t, fmt.Sprintf("ReadBatch(%d)", size), err, wantErr)
			for k := 0; k < 3; k++ {
				n, err := r.ReadBatch(dst)
				if n != 0 {
					t.Fatalf("ReadBatch(%d) after its error returned %d records", size, n)
				}
				sameErr(t, fmt.Sprintf("ReadBatch(%d) after its error, call %d", size, k), err, wantErr)
			}
		}
	})
}

// FuzzTraceRoundTrip encodes random records with Writer and decodes them
// with FileReader, through ReadBatch (Collect) and Read. The bytes must
// equal the reference encoder's, the records must come back identical,
// and Count must match. Deltas run from 0 to ±2^63 (10-byte varints),
// instret takes 1 and 128, and the longer seeds cross the 64 KiB buffers.
func FuzzTraceRoundTrip(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(seed, uint16(seed*7))
	}
	f.Add(uint64(7), uint16(30000))
	f.Add(uint64(8), uint16(math.MaxUint16))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		r := rng.New(seed)
		recs := make(Slice, n)
		var pc, tg uint64
		delta := func() uint64 {
			switch r.Intn(6) {
			case 0:
				return 1 << 63 // -2^63 as a signed delta
			case 1:
				return 1<<63 - 1
			case 2:
				return r.Uint64()
			case 3:
				return -uint64(r.Intn(1 << 20))
			}
			return uint64(r.Intn(256))
		}
		for i := range recs {
			pc += delta()
			tg = pc + delta()
			instret := uint8(1 + r.Intn(maxInstret))
			switch r.Intn(4) {
			case 0:
				instret = 1
			case 1:
				instret = maxInstret
			}
			recs[i] = Record{PC: pc, Target: tg, Taken: r.Bool(0.5), Instret: instret}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if w.Count() != uint64(len(recs)) {
			t.Fatalf("Count = %d, wrote %d", w.Count(), len(recs))
		}
		if !bytes.Equal(buf.Bytes(), refEncode(recs)) {
			t.Fatalf("%d records: %d encoded bytes differ from the reference encoding", len(recs), buf.Len())
		}
		got, err := Collect(NewFileReader(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		checkSame(t, recs, got, "Collect")
		fr := NewFileReader(bytes.NewReader(buf.Bytes()))
		for i, rec := range recs {
			if got, err := fr.Read(); err != nil || got != rec {
				t.Fatalf("Read %d: %+v, %v; want %+v", i, got, err, rec)
			}
		}
		if _, err := fr.Read(); !errors.Is(err, io.EOF) {
			t.Fatalf("Read past the end: %v, want io.EOF", err)
		}
	})
}
