package workload

import (
	"io"

	"bfbp/internal/trace"
)

// Stream returns a reader that synthesises the trace on demand, one
// kernel burst at a time, holding only the current burst in memory. It
// yields exactly the records GenerateN(n) would materialise — both paths
// share the generator and consume randomness in the same order — so a
// streaming run and a materialised run are bit-equivalent.
func (s Spec) Stream(n int) trace.Reader {
	// Bursts are bounded by the deepest kernel round (a few thousand
	// records); start small and let append grow the buffer as needed.
	return &specReader{g: s.generator(n, 256)}
}

type specReader struct {
	g   *generator
	pos int
}

// Read implements trace.Reader as a one-record ReadBatch.
func (r *specReader) Read() (trace.Record, error) {
	var one [1]trace.Record
	if _, err := r.ReadBatch(one[:]); err != nil {
		return trace.Record{}, err
	}
	return one[0], nil
}

// ReadBatch implements trace.BatchReader: it copies whole kernel bursts
// into dst, synthesising new bursts as needed, so the streaming
// generator feeds the batched simulator loop without per-record
// dispatch. The record sequence is identical to repeated Read calls.
func (r *specReader) ReadBatch(dst []trace.Record) (int, error) {
	e := r.g.e
	n := 0
	for n < len(dst) {
		for r.pos >= len(e.out) {
			if e.full() {
				if n > 0 {
					return n, nil
				}
				return 0, io.EOF
			}
			// Recycle the burst buffer and synthesise the next burst.
			e.drained += len(e.out)
			e.out = e.out[:0]
			r.pos = 0
			r.g.stepOnce()
		}
		c := copy(dst[n:], e.out[r.pos:])
		n += c
		r.pos += c
	}
	return n, nil
}

// Source binds the spec to a branch count as a streaming suite trace
// source: it satisfies sim.TraceSource, opening a fresh generator-backed
// reader on every Open call without materialising the trace.
func (s Spec) Source(n int) SpecSource { return SpecSource{Spec: s, Branches: n} }

// SpecSource is the streaming sim.TraceSource implementation backed by a
// synthetic trace spec. Branches <= 0 falls back to the spec's default
// length.
type SpecSource struct {
	Spec     Spec
	Branches int
}

// Name identifies the trace in engine results.
func (s SpecSource) Name() string { return s.Spec.Name }

// Open returns a fresh streaming reader over the trace.
func (s SpecSource) Open() trace.Reader {
	n := s.Branches
	if n <= 0 {
		n = s.Spec.Branches
	}
	return s.Spec.Stream(n)
}
