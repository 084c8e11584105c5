package workload

import (
	"errors"
	"io"
	"testing"

	"bfbp/internal/trace"
)

// Stream must yield exactly the records GenerateN materialises — the
// engine's streaming runs are only trustworthy if the two paths are
// bit-equivalent.
func TestStreamMatchesGenerate(t *testing.T) {
	for _, name := range []string{"SPEC00", "SPEC07", "FP1", "INT4", "MM5", "SERV3"} {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("trace %s missing", name)
		}
		const n = 12_000
		want := s.GenerateN(n)
		r := s.Stream(n)
		for i, rec := range want {
			got, err := r.Read()
			if err != nil {
				t.Fatalf("%s: read %d: %v", name, i, err)
			}
			if got != rec {
				t.Fatalf("%s: record %d diverges: stream %+v, generate %+v", name, i, got, rec)
			}
		}
		if _, err := r.Read(); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: stream longer than generated trace", name)
		}
	}
}

// ReadBatch must yield the same record sequence as repeated Read calls,
// across batch sizes that straddle kernel-burst boundaries.
func TestStreamBatchMatchesSingle(t *testing.T) {
	for _, name := range []string{"SPEC03", "INT2", "SERV1"} {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("trace %s missing", name)
		}
		const n = 10_000
		want := s.GenerateN(n)
		r := s.Stream(n)
		br, ok := r.(trace.BatchReader)
		if !ok {
			t.Fatalf("%s: specReader does not implement trace.BatchReader", name)
		}
		sizes := []int{1, 7, 512, 33, 4096}
		buf := make([]trace.Record, 4096)
		var got []trace.Record
		for i := 0; ; i++ {
			dst := buf[:sizes[i%len(sizes)]]
			k, err := br.ReadBatch(dst)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("%s: batch %d: %v", name, i, err)
			}
			got = append(got, dst[:k]...)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: batched stream yielded %d records, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d diverges: batch %+v, generate %+v", name, i, got[i], want[i])
			}
		}
	}
}

// Read must not allocate once the burst buffer has grown to the
// deepest kernel round: it is a one-record ReadBatch on the stack.
func TestStreamReadAllocs(t *testing.T) {
	s, ok := ByName("SPEC03")
	if !ok {
		t.Fatal("SPEC03 missing")
	}
	r := s.Stream(100_000)
	for i := 0; i < 20_000; i++ {
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10_000, func() {
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("specReader.Read allocated %.2f times per call, want 0", avg)
	}
}

// A second Open on the same SpecSource must restart from scratch.
func TestSpecSourceFreshReaders(t *testing.T) {
	s, ok := ByName("FP3")
	if !ok {
		t.Fatal("FP3 missing")
	}
	src := s.Source(500)
	if src.Name() != "FP3" {
		t.Fatalf("Name = %q", src.Name())
	}
	first, err1 := src.Open().Read()
	second, err2 := src.Open().Read()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if first != second {
		t.Fatalf("fresh readers diverge: %+v vs %+v", first, second)
	}
}

// Branches <= 0 falls back to the spec's default length; check the
// reader terminates at (approximately) that length.
func TestSpecSourceDefaultLength(t *testing.T) {
	s := Spec{Name: "tiny", Family: FP, Seed: 7, Branches: 300}
	s.profile.noise(1.0, 4, 0.5, 4)
	r := SpecSource{Spec: s}.Open()
	count := 0
	for {
		_, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count < 300 || count > 300+64 {
		t.Fatalf("default-length stream yielded %d records, want ~300", count)
	}
}
