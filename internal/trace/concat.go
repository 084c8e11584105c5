package trace

import "io"

// ConcatFunc returns a reader that yields every record of each segment
// in turn, as one continuous trace: next is called each time the
// current segment ends and returns the following segment, or nil when
// the trace is complete. Segments are only materialised as the read
// cursor reaches them, so a very long endurance run (bfsim -endurance,
// which splices reseeded workload segments into one run whose
// behaviour shifts at each splice point) never holds more than one open
// segment. The returned reader implements BatchReader.
func ConcatFunc(next func() Reader) Reader {
	return &concatReader{next: next}
}

type concatReader struct {
	next func() Reader
	cur  BatchReader
	done bool
}

// ReadBatch implements BatchReader, splicing segment boundaries
// transparently: a clean io.EOF from the current segment advances to
// the next one, and only errors other than end-of-segment (or the
// final end-of-trace) surface. The records-xor-error contract holds
// because each inner ReadBatch already honours it.
func (c *concatReader) ReadBatch(dst []Record) (int, error) {
	for {
		if c.cur == nil {
			if c.done {
				return 0, io.EOF
			}
			r := c.next()
			if r == nil {
				c.done = true
				return 0, io.EOF
			}
			c.cur = Batched(r)
		}
		n, err := c.cur.ReadBatch(dst)
		if n > 0 {
			return n, nil
		}
		if err == io.EOF {
			c.cur = nil
			continue
		}
		if err == nil {
			err = io.EOF
			c.cur = nil
			continue
		}
		return 0, err
	}
}

// Read implements Reader.
func (c *concatReader) Read() (Record, error) {
	var one [1]Record
	n, err := c.ReadBatch(one[:])
	if n == 0 {
		if err == nil {
			err = io.EOF
		}
		return Record{}, err
	}
	return one[0], nil
}
