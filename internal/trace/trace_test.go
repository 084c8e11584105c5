package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"bfbp/internal/rng"
)

func sample(n int, seed uint64) Slice {
	r := rng.New(seed)
	recs := make(Slice, n)
	pc := uint64(0x400000)
	for i := range recs {
		pc += uint64(r.Intn(64)) * 4
		recs[i] = Record{
			PC:      pc,
			Target:  pc + uint64(r.Intn(4096)) - 2048,
			Taken:   r.Bool(0.6),
			Instret: uint8(r.Intn(16) + 1),
		}
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	in := sample(5000, 1)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range in {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := Collect(NewFileReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, in[i], out[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		in := sample(int(n%500), seed)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, rec := range in {
			if err := w.Write(rec); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		out, err := Collect(NewFileReader(&buf))
		if err != nil {
			return false
		}
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := Collect(NewFileReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty trace decoded %d records", len(out))
	}
}

func TestBadMagic(t *testing.T) {
	r := NewFileReader(bytes.NewReader([]byte("NOPE....")))
	_, err := r.Read()
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	in := sample(10, 3)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range in {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut mid-record: magic is 4 bytes, so cut somewhere past it.
	cut := full[:len(full)-1]
	r := NewFileReader(bytes.NewReader(cut))
	var err error
	for err == nil {
		_, err = r.Read()
	}
	if errors.Is(err, io.EOF) {
		t.Fatal("truncated trace reported clean EOF; want corruption error")
	}
}

func TestInstretValidation(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Write(Record{PC: 1, Instret: 0}); err == nil {
		t.Fatal("Instret 0 accepted")
	}
	if err := w.Write(Record{PC: 1, Instret: 129}); err == nil {
		t.Fatal("Instret 129 accepted")
	}
	if err := w.Write(Record{PC: 1, Instret: 128}); err != nil {
		t.Fatalf("Instret 128 rejected: %v", err)
	}
}

func TestSliceStream(t *testing.T) {
	s := sample(7, 5)
	got, err := Collect(s.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("collected %d, want 7", len(got))
	}
	for i := range s {
		if s[i] != got[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestInstructions(t *testing.T) {
	s := Slice{{Instret: 3}, {Instret: 5}, {Instret: 1}}
	if n := s.Instructions(); n != 9 {
		t.Fatalf("Instructions = %d, want 9", n)
	}
}

func TestLimit(t *testing.T) {
	s := sample(100, 9)
	got, err := Collect(Limit(s.Stream(), 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("Limit yielded %d, want 10", len(got))
	}
	got, err = Collect(Limit(s.Stream(), 1000))
	if err != nil || len(got) != 100 {
		t.Fatalf("Limit past end yielded %d (err %v), want 100", len(got), err)
	}
}

func TestFuncAdapter(t *testing.T) {
	i := 0
	f := Func(func() (Record, error) {
		if i >= 3 {
			return Record{}, io.EOF
		}
		i++
		return Record{PC: uint64(i), Instret: 1, Taken: true}, nil
	})
	got, err := Collect(f)
	if err != nil || len(got) != 3 {
		t.Fatalf("Func adapter yielded %d (err %v), want 3", len(got), err)
	}
}

func TestCompression(t *testing.T) {
	// Tight loops produce tiny deltas; the format should spend well under
	// 6 bytes per record on loop-heavy traces.
	recs := make(Slice, 10000)
	for i := range recs {
		recs[i] = Record{PC: 0x400100, Target: 0x400080, Taken: i%100 != 99, Instret: 5}
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
	perRec := float64(buf.Len()) / float64(len(recs))
	if perRec > 6 {
		t.Fatalf("loop trace uses %.2f bytes/record, want <= 6", perRec)
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 42; i++ {
		if err := w.Write(Record{PC: uint64(i), Instret: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 42 {
		t.Fatalf("Count = %d, want 42", w.Count())
	}
}

// TestWriteAllocs pins Writer.Write at zero allocations per record: it
// encodes straight into the output buffer's free space.
func TestWriteAllocs(t *testing.T) {
	recs := sample(1000, 11)
	w := NewWriter(io.Discard)
	i := 0
	allocs := testing.AllocsPerRun(5000, func() {
		if err := w.Write(recs[i%len(recs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Writer.Write allocates %.1f times per record, want 0", allocs)
	}
}

// TestReadBatchAllocs pins FileReader.ReadBatch at zero allocations per
// batch once its buffer exists.
func TestReadBatchAllocs(t *testing.T) {
	in := sample(60000, 12)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range in {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewFileReader(bytes.NewReader(buf.Bytes()))
	dst := make([]Record, 256)
	allocs := testing.AllocsPerRun(200, func() {
		if n, err := r.ReadBatch(dst); err != nil || n != len(dst) {
			t.Fatalf("ReadBatch: n=%d err=%v", n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FileReader.ReadBatch allocates %.1f times per batch, want 0", allocs)
	}
}

// errOnce fails its first Read with err and then reports io.EOF, so an
// io.MultiReader reads on past it.
type errOnce struct{ err error }

func (e *errOnce) Read([]byte) (int, error) {
	if err := e.err; err != nil {
		e.err = nil
		return 0, err
	}
	return 0, io.EOF
}

// TestFileReaderErrorSticky checks that a read error between two records
// ends the trace: Read and ReadBatch return it, wrapped, on every later
// call, even though the underlying stream would go on. So does a read
// error inside the header, unwrapped.
func TestFileReaderErrorSticky(t *testing.T) {
	in := sample(10, 13)
	var head, all bytes.Buffer
	w := NewWriter(&all)
	for i, rec := range in {
		if i == 3 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			head.Write(all.Bytes())
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	open := func() *FileReader {
		return NewFileReader(io.MultiReader(bytes.NewReader(head.Bytes()), &errOnce{boom},
			bytes.NewReader(all.Bytes()[head.Len():])))
	}
	const want = "trace: corrupt pc delta: boom"

	r := open()
	for i := 0; i < 3; i++ {
		if got, err := r.Read(); err != nil || got != in[i] {
			t.Fatalf("Read %d: %+v, %v; want %+v", i, got, err, in[i])
		}
	}
	for k := 0; k < 3; k++ {
		if _, err := r.Read(); !errors.Is(err, boom) || err.Error() != want {
			t.Fatalf("Read call %d after the error: %v, want %q", k, err, want)
		}
	}

	// A read error inside the header is sticky too.
	r = NewFileReader(io.MultiReader(bytes.NewReader(all.Bytes()[:2]), &errOnce{boom},
		bytes.NewReader(all.Bytes()[2:])))
	for k := 0; k < 3; k++ {
		if _, err := r.Read(); err != boom {
			t.Fatalf("Read call %d after a header error: %v, want %v", k, err, boom)
		}
	}

	r = open()
	dst := make([]Record, 64)
	if n, err := r.ReadBatch(dst); n != 3 || err != nil {
		t.Fatalf("ReadBatch: n=%d err=%v, want the 3 records before the error", n, err)
	}
	for k := 0; k < 3; k++ {
		if n, err := r.ReadBatch(dst); n != 0 || !errors.Is(err, boom) || err.Error() != want {
			t.Fatalf("ReadBatch call %d after the error: n=%d err=%v, want %q", k, n, err, want)
		}
	}
}
