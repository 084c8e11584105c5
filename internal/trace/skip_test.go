package trace

import (
	"errors"
	"io"
	"testing"
)

func skipFixture(n int) Slice {
	tr := make(Slice, n)
	for i := range tr {
		tr[i] = Record{PC: uint64(i), Taken: i%3 == 0, Instret: 1}
	}
	return tr
}

func TestSkip(t *testing.T) {
	tr := skipFixture(10000)
	for _, n := range []int{0, 1, 7, 4095, 4096, 4097, 9999} {
		r := Skip(tr.Stream(), n)
		var got []Record
		for {
			rec, err := r.Read()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("skip %d: %v", n, err)
			}
			got = append(got, rec)
		}
		want := tr[n:]
		if len(got) != len(want) {
			t.Fatalf("skip %d: %d records, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("skip %d: record %d = %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
}

func TestSkipBatched(t *testing.T) {
	tr := skipFixture(9000)
	r := Skip(tr.Stream(), 4100).(BatchReader)
	var got []Record
	buf := make([]Record, 333)
	for {
		n, err := r.ReadBatch(buf)
		got = append(got, buf[:n]...)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	want := tr[4100:]
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSkipPastEnd(t *testing.T) {
	tr := skipFixture(100)
	r := Skip(tr.Stream(), 500)
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("skip past end: %v, want io.EOF", err)
	}
}

func TestSkipZeroReturnsSameReader(t *testing.T) {
	s := skipFixture(5).Stream()
	if Skip(s, 0) != s {
		t.Fatal("Skip(r, 0) should return r unchanged")
	}
}

// Read on a skipped trace must not allocate: its one-record scratch
// lives in the reader, not on the heap per call.
func TestSkipReadAllocs(t *testing.T) {
	r := Skip(skipFixture(10000).Stream(), 100)
	avg := testing.AllocsPerRun(1000, func() {
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("skipReader.Read allocated %.2f times per call, want 0", avg)
	}
}
