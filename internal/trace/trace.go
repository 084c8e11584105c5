// Package trace defines the branch-trace model used throughout the
// repository and a compact binary on-disk format for it.
//
// A trace is a sequence of committed conditional-branch records, mirroring
// the Championship Branch Prediction (CBP) evaluation discipline: the
// simulator asks the predictor for a direction at each record, then reveals
// the true outcome for training. Each record also carries the number of
// instructions retired since the previous record (including the branch
// itself) so that accuracy can be reported as MPKI — mispredictions per
// 1000 instructions — exactly as the paper does.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Record is one committed conditional branch.
type Record struct {
	// PC is the address of the branch instruction.
	PC uint64
	// Target is the taken target address. Synthetic traces populate it so
	// that target-sensitive structures (e.g. loop predictors keyed by
	// backward branches) see realistic values; it may be zero.
	Target uint64
	// Taken is the resolved direction.
	Taken bool
	// Instret is the number of instructions retired since the previous
	// record, inclusive of this branch (so it is always >= 1).
	Instret uint8
}

// Reader yields trace records in commit order. Read returns io.EOF after
// the final record.
type Reader interface {
	Read() (Record, error)
}

// BatchReader yields trace records many at a time into a caller-owned
// buffer, amortising interface dispatch and error checks over the batch.
// ReadBatch fills dst with up to len(dst) records and returns the count;
// it returns a non-nil error — io.EOF at a clean end of trace — only
// when n == 0, so consumers never have to handle records and an error
// from the same call. Every Reader in this package also implements
// BatchReader; arbitrary Readers are adapted with Batched.
type BatchReader interface {
	ReadBatch(dst []Record) (int, error)
}

// Batched returns a BatchReader view of r: r itself when it already
// implements BatchReader, otherwise an adapter that fills batches with
// repeated single-record Reads.
func Batched(r Reader) BatchReader {
	if br, ok := r.(BatchReader); ok {
		return br
	}
	return &batchAdapter{r: r}
}

type batchAdapter struct {
	r   Reader
	err error // deferred error from a partially filled batch
}

func (b *batchAdapter) ReadBatch(dst []Record) (int, error) {
	if b.err != nil {
		err := b.err
		b.err = nil
		return 0, err
	}
	n := 0
	for n < len(dst) {
		rec, err := b.r.Read()
		if err != nil {
			if n > 0 {
				b.err = err
				return n, nil
			}
			return 0, err
		}
		dst[n] = rec
		n++
	}
	return n, nil
}

// Slice is an in-memory trace. It implements Reader via Stream.
type Slice []Record

// Stream returns a Reader over the slice. The returned reader also
// implements BatchReader.
func (s Slice) Stream() Reader { return &sliceReader{recs: s} }

type sliceReader struct {
	recs Slice
	pos  int
}

func (r *sliceReader) Read() (Record, error) {
	if r.pos >= len(r.recs) {
		return Record{}, io.EOF
	}
	rec := r.recs[r.pos]
	r.pos++
	return rec, nil
}

// ReadBatch implements BatchReader with one copy.
func (r *sliceReader) ReadBatch(dst []Record) (int, error) {
	if r.pos >= len(r.recs) {
		return 0, io.EOF
	}
	n := copy(dst, r.recs[r.pos:])
	r.pos += n
	return n, nil
}

// Source binds a label to the slice so it can serve as an in-memory
// suite trace source (it satisfies sim.TraceSource).
func (s Slice) Source(name string) NamedSlice { return NamedSlice{Label: name, Records: s} }

// NamedSlice is an in-memory trace with a name, the materialised
// counterpart of a streaming trace source. Open replays the same records
// on every call.
type NamedSlice struct {
	Label   string
	Records Slice
}

// Name identifies the trace in engine results.
func (n NamedSlice) Name() string { return n.Label }

// Open returns a fresh reader over the records.
func (n NamedSlice) Open() Reader { return n.Records.Stream() }

// Instructions returns the total retired-instruction count of the trace.
func (s Slice) Instructions() uint64 {
	var n uint64
	for _, r := range s {
		n += uint64(r.Instret)
	}
	return n
}

// Collect drains a Reader into a Slice, filling it through ReadBatch.
// It is intended for tests and small traces; experiment binaries stream
// instead.
func Collect(r Reader) (Slice, error) {
	br := Batched(r)
	var out Slice
	for {
		if len(out) == cap(out) {
			out = slices.Grow(out, 4096) // RunContext's batch size
		}
		n, err := br.ReadBatch(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Binary format
//
//	magic   [4]byte "BFT1"
//	records *(varint pcDelta_zigzag, varint targetDelta_zigzag, byte flags)
//
// flags bit0 = taken, bits 1..7 = instret-1 (1..128 instructions).
// PCs and targets are delta-encoded against the previous record's values,
// zigzag-coded; branch working sets are compact so deltas are short.

var magic = [4]byte{'B', 'F', 'T', '1'}

// ErrBadMagic reports that a stream does not start with the trace magic.
var ErrBadMagic = errors.New("trace: bad magic (not a BFT1 trace)")

// errOverflow carries binary.ReadUvarint's message for a varint longer
// than 64 bits.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

const (
	maxInstret = 128
	// maxRecord is the longest encoded record: two 10-byte varints and
	// the flags byte. Both directions keep at least this much room in
	// their buffers so that a record never straddles a refill or flush.
	maxRecord = 2*binary.MaxVarintLen64 + 1
	// bufSize is the size of both directions' bufio buffers.
	bufSize = 1 << 16
)

// Writer encodes records to an io.Writer in the BFT1 format.
type Writer struct {
	w      *bufio.Writer
	prevPC uint64
	prevTg uint64
	n      uint64
	wrote  bool
}

// NewWriter returns a Writer that emits the trace header immediately on
// first Write.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, bufSize)}
}

// Write appends one record, encoding it straight into the free space of
// the output buffer.
func (w *Writer) Write(rec Record) error {
	if !w.wrote {
		if _, err := w.w.Write(magic[:]); err != nil {
			return err
		}
		w.wrote = true
	}
	if rec.Instret == 0 || rec.Instret > maxInstret {
		return fmt.Errorf("trace: instret %d out of range [1,%d]", rec.Instret, maxInstret)
	}
	if w.w.Available() < maxRecord {
		if err := w.w.Flush(); err != nil {
			return err
		}
	}
	flags := byte(rec.Instret-1) << 1
	if rec.Taken {
		flags |= 1
	}
	b := binary.AppendUvarint(w.w.AvailableBuffer(), zigzag(int64(rec.PC-w.prevPC)))
	b = binary.AppendUvarint(b, zigzag(int64(rec.Target-w.prevTg)))
	if _, err := w.w.Write(append(b, flags)); err != nil {
		return err
	}
	w.prevPC, w.prevTg = rec.PC, rec.Target
	w.n++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.n }

// Flush flushes buffered output. It must be called before closing the
// underlying writer.
func (w *Writer) Flush() error {
	if !w.wrote {
		// An empty trace is still a valid trace: emit the header.
		if _, err := w.w.Write(magic[:]); err != nil {
			return err
		}
		w.wrote = true
	}
	return w.w.Flush()
}

// FileReader decodes the BFT1 format. It implements Reader and
// BatchReader. Records are decoded in place from the bytes buffered by
// its bufio.Reader. The first error it returns is sticky: every later
// call returns it again.
type FileReader struct {
	r      *bufio.Reader
	prevPC uint64
	prevTg uint64
	began  bool
	rerr   error // the read error that ended the input; nothing is read past it
	err    error // the first error, returned by every later call
}

// NewFileReader wraps r. The header is validated lazily on first Read.
func NewFileReader(r io.Reader) *FileReader {
	return &FileReader{r: bufio.NewReaderSize(r, bufSize)}
}

// Read returns the next record or io.EOF. It is a one-record ReadBatch.
func (fr *FileReader) Read() (Record, error) {
	var one [1]Record
	if _, err := fr.ReadBatch(one[:]); err != nil {
		return Record{}, err
	}
	return one[0], nil
}

// ReadBatch implements BatchReader: it decodes until dst is full or the
// stream ends. An error hit after at least one decoded record is
// deferred to the next call, honouring the records-xor-error contract.
func (fr *FileReader) ReadBatch(dst []Record) (int, error) {
	if fr.err != nil {
		return 0, fr.err
	}
	if !fr.began {
		if err := fr.header(); err != nil {
			fr.err = err
			return 0, err
		}
	}
	n := 0
	for n < len(dst) {
		// Refill when a whole record may not be buffered. After a read
		// error the buffered bytes are all that is left of the stream.
		if fr.rerr == nil && fr.r.Buffered() < maxRecord {
			_, fr.rerr = fr.r.Peek(maxRecord)
		}
		buf, _ := fr.r.Peek(fr.r.Buffered())
		k, used, err := fr.decode(dst[n:], buf, fr.rerr)
		fr.r.Discard(used) // cannot fail: the bytes are buffered
		n += k
		if err != nil {
			fr.err = err
			if n > 0 {
				return n, nil
			}
			return 0, err
		}
	}
	return n, nil
}

// header consumes and checks the magic.
func (fr *FileReader) header() error {
	m, err := fr.r.Peek(len(magic))
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return ErrBadMagic
		}
		return err
	}
	if [4]byte(m) != magic {
		return ErrBadMagic
	}
	fr.r.Discard(len(magic))
	fr.began = true
	return nil
}

// decode is the codec's decode kernel: it decodes records from buf into
// dst and returns how many it decoded and the bytes they used. While
// rerr is nil more bytes may follow buf, so it stops at a record that
// may not be whole (fewer than maxRecord bytes left) for the caller to
// refill. Otherwise buf is the stream's tail: a clean end after the last
// record returns io.EOF, and a record cut short returns an error naming
// the field it was cut in.
func (fr *FileReader) decode(dst []Record, buf []byte, rerr error) (n, used int, err error) {
	pc, tg := fr.prevPC, fr.prevTg
	i := 0
	for n < len(dst) {
		if len(buf)-i < maxRecord {
			if rerr == nil {
				break
			}
			if i == len(buf) && errors.Is(rerr, io.EOF) {
				err = io.EOF
				break
			}
		}
		dpc, j := uvarint(buf, i)
		if j <= 0 {
			err = corrupt("pc delta", j, rerr)
			break
		}
		dtg, k := uvarint(buf, j)
		if k <= 0 {
			err = corrupt("target delta", k, rerr)
			break
		}
		if k == len(buf) {
			err = corrupt("flags", 0, rerr)
			break
		}
		flags := buf[k]
		i = k + 1
		pc += uint64(unzigzag(dpc))
		tg += uint64(unzigzag(dtg))
		dst[n] = Record{PC: pc, Target: tg, Taken: flags&1 != 0, Instret: flags>>1 + 1}
		n++
	}
	fr.prevPC, fr.prevTg = pc, tg
	return n, i, err
}

// uvarint decodes the varint at buf[i:] the way binary.ReadUvarint reads
// one from a stream. It returns the value and the index past it; the
// index is 0 when buf ends inside the varint and -1 on overflow.
func uvarint(buf []byte, i int) (uint64, int) {
	var x uint64
	for s := uint(0); s < 7*binary.MaxVarintLen64; s += 7 {
		if i >= len(buf) {
			return 0, 0
		}
		b := buf[i]
		i++
		if b < 0x80 {
			if s == 63 && b > 1 {
				return 0, -1
			}
			return x | uint64(b)<<s, i
		}
		x |= uint64(b&0x7f) << s
	}
	return 0, -1
}

// corrupt describes a record cut short in field: at the end of the
// stream's bytes (at == 0), with rerr the read error that ended them, or
// by a varint overflow (at < 0).
func corrupt(field string, at int, rerr error) error {
	cause := errOverflow
	if at == 0 {
		cause = rerr
		if errors.Is(rerr, io.EOF) {
			cause = io.ErrUnexpectedEOF
		}
	}
	return fmt.Errorf("trace: corrupt %s: %w", field, cause)
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Limit returns a Reader that yields at most n records from r. The
// returned reader also implements BatchReader, delegating batch reads
// when r supports them.
func Limit(r Reader, n uint64) Reader { return &limitReader{r: r, left: n} }

type limitReader struct {
	r    Reader
	br   BatchReader // lazily resolved batch view of r
	left uint64
}

func (l *limitReader) Read() (Record, error) {
	if l.left == 0 {
		return Record{}, io.EOF
	}
	rec, err := l.r.Read()
	if err != nil {
		return Record{}, err
	}
	l.left--
	return rec, nil
}

// ReadBatch implements BatchReader, capping the batch at the remaining
// budget.
func (l *limitReader) ReadBatch(dst []Record) (int, error) {
	if l.left == 0 {
		return 0, io.EOF
	}
	if uint64(len(dst)) > l.left {
		dst = dst[:l.left]
	}
	if l.br == nil {
		l.br = Batched(l.r)
	}
	n, err := l.br.ReadBatch(dst)
	l.left -= uint64(n)
	return n, err
}

// Func adapts a generator function to the Reader interface. The function
// should return io.EOF when the trace ends.
type Func func() (Record, error)

// Read calls f.
func (f Func) Read() (Record, error) { return f() }
