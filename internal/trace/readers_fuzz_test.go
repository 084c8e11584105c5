package trace_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

// fuzzReaders names the readers FuzzBatchReaders checks; openFuzzReader
// builds a fresh reader of the chosen kind, so the Read drain and the
// ReadBatch drain see the same records.
var fuzzReaders = []string{"slice", "limit", "skip", "file", "spec"}

// openFuzzReader returns a reader of kind k over recs: n is the limit,
// the skip or the workload trace's index, and encoded the file kind's
// bytes.
func openFuzzReader(t *testing.T, k int, recs trace.Slice, n int, encoded []byte) trace.Reader {
	t.Helper()
	switch fuzzReaders[k] {
	case "slice":
		return recs.Stream()
	case "limit":
		return trace.Limit(recs.Stream(), uint64(n))
	case "skip":
		return trace.Skip(recs.Stream(), n)
	case "file":
		return trace.NewFileReader(bytes.NewReader(encoded))
	default:
		names := workload.Names()
		s, ok := workload.ByName(names[n%len(names)])
		if !ok {
			t.Fatalf("trace %s missing", names[n%len(names)])
		}
		return s.Stream(len(recs))
	}
}

// FuzzBatchReaders checks the records-xor-error contract of every
// reader in internal/trace and of the workload generator's stream: for
// a random sequence of batch sizes, ReadBatch yields exactly the records
// repeated Read yields, never returns records together with an error
// (nor zero records without one), ends with the error Read ends with,
// and returns that error again on every later call. The file kind reads
// a BFT1 encoding cut at a random byte, so its end may be a corrupt-
// record error instead of io.EOF.
func FuzzBatchReaders(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(100), uint16(0), []byte{1, 7, 0})
	f.Add(uint8(1), int64(2), uint16(5000), uint16(4097), []byte{255, 3})
	f.Add(uint8(2), int64(3), uint16(9000), uint16(4095), []byte{0, 1, 2})
	f.Add(uint8(3), int64(4), uint16(3000), uint16(12345), []byte{7})
	f.Add(uint8(3), int64(5), uint16(300), uint16(0xffff), []byte{0})
	f.Add(uint8(4), int64(6), uint16(6000), uint16(17), []byte{33, 1, 0})
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, length, param uint16, sizes []byte) {
		k := int(kind) % len(fuzzReaders)
		rng := rand.New(rand.NewSource(seed))
		recs := make(trace.Slice, int(length)%10_000)
		for i := range recs {
			recs[i] = trace.Record{
				PC:      rng.Uint64(),
				Target:  rng.Uint64(),
				Taken:   rng.Intn(2) == 1,
				Instret: uint8(1 + rng.Intn(64)),
			}
		}
		var encoded []byte
		if fuzzReaders[k] == "file" {
			var buf bytes.Buffer
			w := trace.NewWriter(&buf)
			for _, r := range recs {
				if err := w.Write(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			encoded = buf.Bytes()[:int(param)%(buf.Len()+1)]
		}
		n := int(param)

		// The reference: repeated Read up to the first error.
		r := openFuzzReader(t, k, recs, n, encoded)
		var want trace.Slice
		var wantErr error
		for {
			rec, err := r.Read()
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, rec)
		}
		for i := 0; i < 2; i++ {
			if _, err := r.Read(); err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("Read after the end: %v, want %v", err, wantErr)
			}
		}

		if len(sizes) == 0 {
			sizes = []byte{0}
		}
		br := trace.Batched(openFuzzReader(t, k, recs, n, encoded))
		buf := make([]trace.Record, 4096)
		var got trace.Slice
		var gotErr error
		for i := 0; ; i++ {
			// Size 0 stands for the simulator's 4096-record batch.
			size := int(sizes[i%len(sizes)])
			if size == 0 {
				size = len(buf)
			}
			c, err := br.ReadBatch(buf[:size])
			if c > 0 && err != nil {
				t.Fatalf("batch %d: %d records together with %v", i, c, err)
			}
			if c < 0 || c > size {
				t.Fatalf("batch %d: %d records into a %d-record buffer", i, c, size)
			}
			if err != nil {
				gotErr = err
				break
			}
			if c == 0 {
				t.Fatalf("batch %d: no records and no error", i)
			}
			got = append(got, buf[:c]...)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: ReadBatch yielded %d records, Read %d", fuzzReaders[k], len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d: ReadBatch %+v, Read %+v", fuzzReaders[k], i, got[i], want[i])
			}
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: ReadBatch ended with %v, Read with %v", fuzzReaders[k], gotErr, wantErr)
		}
		if fuzzReaders[k] != "file" && !errors.Is(gotErr, io.EOF) {
			t.Fatalf("%s: clean trace ended with %v, want io.EOF", fuzzReaders[k], gotErr)
		}
		for i := 0; i < 2; i++ {
			if c, err := br.ReadBatch(buf); c != 0 || err == nil || err.Error() != gotErr.Error() {
				t.Fatalf("%s: ReadBatch after the end: %d, %v; want 0, %v", fuzzReaders[k], c, err, gotErr)
			}
		}
	})
}
