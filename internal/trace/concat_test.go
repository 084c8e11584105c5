package trace

import (
	"errors"
	"io"
	"testing"
)

func seqSlice(base uint64, n int) Slice {
	out := make(Slice, n)
	for i := range out {
		out[i] = Record{PC: base + uint64(i), Taken: i%2 == 0, Instret: 3}
	}
	return out
}

// concat splices a fixed list of segments through ConcatFunc.
func concat(readers ...Reader) Reader {
	return ConcatFunc(func() Reader {
		if len(readers) == 0 {
			return nil
		}
		r := readers[0]
		readers = readers[1:]
		return r
	})
}

// ConcatFunc yields every segment's records in order, across both the
// Reader and BatchReader paths.
func TestConcatOrder(t *testing.T) {
	a, b, c := seqSlice(0x100, 5), seqSlice(0x200, 3), seqSlice(0x300, 7)
	want := append(append(append(Slice{}, a...), b...), c...)

	got, err := Collect(concat(a.Stream(), b.Stream(), c.Stream()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Batch path with a buffer that straddles segment boundaries.
	r := concat(a.Stream(), b.Stream(), c.Stream()).(BatchReader)
	var batched Slice
	buf := make([]Record, 4)
	for {
		n, err := r.ReadBatch(buf)
		if n > 0 {
			batched = append(batched, buf[:n]...)
			continue
		}
		if err != io.EOF {
			t.Fatalf("batch error %v", err)
		}
		break
	}
	if len(batched) != len(want) {
		t.Fatalf("batched %d records, want %d", len(batched), len(want))
	}
	for i := range want {
		if batched[i] != want[i] {
			t.Fatalf("batched record %d = %+v, want %+v", i, batched[i], want[i])
		}
	}
}

// Empty segments (including a fully empty concat) splice cleanly.
func TestConcatEmptySegments(t *testing.T) {
	got, err := Collect(concat(Slice{}.Stream(), seqSlice(1, 2).Stream(), Slice{}.Stream()))
	if err != nil || len(got) != 2 {
		t.Fatalf("got %d records, err %v; want 2, nil", len(got), err)
	}
	if _, err := concat().Read(); err != io.EOF {
		t.Fatalf("empty concat Read = %v, want EOF", err)
	}
}

// ConcatFunc materialises segments lazily: the generator is only
// called when the cursor actually reaches each boundary.
func TestConcatFuncLazy(t *testing.T) {
	calls := 0
	r := ConcatFunc(func() Reader {
		calls++
		if calls > 3 {
			return nil
		}
		return seqSlice(uint64(calls)<<8, 2).Stream()
	})
	if calls != 0 {
		t.Fatalf("generator called %d times before first read", calls)
	}
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("generator called %d times after first read, want 1", calls)
	}
	rest, err := Collect(r)
	if err != nil || len(rest) != 5 {
		t.Fatalf("collected %d remaining records, err %v; want 5, nil", len(rest), err)
	}
	if calls != 4 {
		t.Fatalf("generator called %d times in total, want 4 (3 segments + nil)", calls)
	}
	// A drained concat stays at EOF without re-invoking the generator.
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("post-EOF Read = %v, want EOF", err)
	}
	if calls != 4 {
		t.Fatalf("generator re-invoked after EOF (%d calls)", calls)
	}
}

// Mid-segment errors other than EOF surface to the caller.
func TestConcatPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	bad := Func(func() (Record, error) { return Record{}, boom })
	r := concat(seqSlice(0, 1).Stream(), bad)
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}
