package trace

import "io"

// Skip returns a reader that discards the first n records of r and then
// yields the rest unchanged. Trace sources always restart at record 0,
// so Skip is how a resumed simulation (bfsim -resume) fast-forwards a
// trace to the branch its checkpoint was taken at. A trace shorter than
// n yields io.EOF immediately.
func Skip(r Reader, n int) Reader {
	if n <= 0 {
		return r
	}
	return &skipReader{r: Batched(r), n: n}
}

type skipReader struct {
	r    BatchReader
	n    int // records still to discard
	buf  []Record
	pos  int // read cursor into buf
	fill int // valid records in buf
	// one is Read's scratch record. A local array would escape to the
	// heap on every call, since ReadBatch hands dst to the inner
	// reader's interface method.
	one [1]Record
}

// ReadBatch implements BatchReader: the skip itself runs through batch
// reads, so fast-forwarding a long prefix costs no per-record dispatch.
func (s *skipReader) ReadBatch(dst []Record) (int, error) {
	for s.n > 0 {
		if s.buf == nil {
			s.buf = make([]Record, 4096)
		}
		n, err := s.r.ReadBatch(s.buf)
		if err != nil {
			return 0, err
		}
		if n > s.n {
			// The batch straddles the boundary: buffer the tail.
			s.pos, s.fill = s.n, n
			s.n = 0
			break
		}
		s.n -= n
	}
	if s.pos < s.fill {
		n := copy(dst, s.buf[s.pos:s.fill])
		s.pos += n
		return n, nil
	}
	return s.r.ReadBatch(dst)
}

// Read implements Reader.
func (s *skipReader) Read() (Record, error) {
	n, err := s.ReadBatch(s.one[:])
	if n == 0 {
		if err == nil {
			err = io.EOF
		}
		return Record{}, err
	}
	return s.one[0], nil
}
