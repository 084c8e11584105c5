// Package state implements bfbp.state.v1, the versioned binary snapshot
// container for predictor state. A snapshot is a header — magic, format
// version, predictor name, config hash — followed by length-prefixed
// named sections, each an opaque byte payload written by the predictor
// that owns it. The codec is stdlib-only and fully deterministic: the
// same predictor state always serialises to the same bytes, so
// save→load→save is byte-identical (the property the codec tests pin).
//
// The header binds a snapshot to the exact configuration that produced
// it: LoadState implementations call Verify with their own name and
// config hash and refuse snapshots from a different predictor or a
// differently-parameterised instance, returning ErrPredictorMismatch /
// ErrConfigMismatch instead of silently loading garbage.
//
// Versioning policy: the container version (bfbp.state.v1) covers the
// header and section framing only. Section payload layouts are owned by
// the predictors; any payload change must be accompanied by a config
// hash change (new field in the hash) or a container version bump, so
// stale snapshots fail loudly at Verify/decode time rather than
// misloading.
package state

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic is the four-byte tag opening every bfbp.state.v1 snapshot.
var Magic = [4]byte{'b', 'f', 's', 't'}

// Version is the container format version this package reads and writes.
const Version = 1

// maxSections bounds the section count a header may claim, so corrupt
// headers cannot drive huge allocations.
const maxSections = 1 << 16

// Typed decode/verify errors. All decode failures wrap exactly one of
// these, so callers can errors.Is-match without string inspection.
var (
	ErrBadMagic          = errors.New("state: not a bfbp.state snapshot")
	ErrVersion           = errors.New("state: unsupported snapshot version")
	ErrTruncated         = errors.New("state: truncated snapshot")
	ErrCorrupt           = errors.New("state: corrupt snapshot")
	ErrPredictorMismatch = errors.New("state: snapshot is for a different predictor")
	ErrConfigMismatch    = errors.New("state: snapshot config hash mismatch")
	ErrNoSection         = errors.New("state: missing snapshot section")
)

// Snapshot is one bfbp.state.v1 container: identity plus an ordered list
// of named sections. Order is preserved across encode/decode, which is
// what makes round-trips byte-stable.
//
// Loading follows one rule. A loader reads every section it owns
// through Dec, checks the snapshot once with Err, and only then
// installs what it read. Every cursor the snapshot hands out shares one
// sticky first error, so the reads need no checks of their own.
type Snapshot struct {
	Predictor  string
	ConfigHash uint64
	sections   []section
	err        error // the first failure of any cursor
}

type section struct {
	name string
	enc  Enc
	dec  *Dec // the section's one read cursor, once handed out
}

// New starts an empty snapshot for the named predictor configuration.
func New(predictor string, configHash uint64) *Snapshot {
	return &Snapshot{Predictor: predictor, ConfigHash: configHash}
}

// Section returns the encoder for the named section, appending a new
// empty section if it does not exist yet. Writers fill sections in a
// fixed order; that order is the serialised order.
func (s *Snapshot) Section(name string) *Enc {
	for i := range s.sections {
		if s.sections[i].name == name {
			return &s.sections[i].enc
		}
	}
	s.sections = append(s.sections, section{name: name})
	return &s.sections[len(s.sections)-1].enc
}

// Sections lists the section names in serialised order.
func (s *Snapshot) Sections() []string {
	names := make([]string, len(s.sections))
	for i := range s.sections {
		names[i] = s.sections[i].name
	}
	return names
}

// Dec returns the read cursor over the named section's payload. Every
// call for one section returns the same cursor, so a section's readers
// continue where the previous one stopped. A missing section's cursor
// has already failed with ErrNoSection.
func (s *Snapshot) Dec(name string) *Dec {
	for i := range s.sections {
		if sec := &s.sections[i]; sec.name == name {
			if sec.dec == nil {
				sec.dec = &Dec{buf: sec.enc.buf, name: name, err: &s.err}
			}
			return sec.dec
		}
	}
	d := &Dec{name: name, err: &s.err}
	d.fail(fmt.Errorf("%w: %q", ErrNoSection, name))
	return d
}

// Err is the one check a loader makes, after its last read and before
// it installs anything. It returns the first failure of any cursor;
// otherwise ErrCorrupt if a section that was read has bytes left over,
// or if a section was never read.
func (s *Snapshot) Err() error {
	if s.err != nil {
		return s.err
	}
	for _, sec := range s.sections {
		switch {
		case sec.dec == nil:
			return fmt.Errorf("%w: section %q was never read", ErrCorrupt, sec.name)
		case sec.dec.Remaining() != 0:
			return fmt.Errorf("%w: section %q has %d bytes left over", ErrCorrupt, sec.name, sec.dec.Remaining())
		}
	}
	return nil
}

// Verify checks that the snapshot was produced by the given predictor
// name and config hash.
func (s *Snapshot) Verify(predictor string, configHash uint64) error {
	if s.Predictor != predictor {
		return fmt.Errorf("%w: snapshot holds %q, loading into %q", ErrPredictorMismatch, s.Predictor, predictor)
	}
	if s.ConfigHash != configHash {
		return fmt.Errorf("%w: snapshot %#x, instance %#x", ErrConfigMismatch, s.ConfigHash, configHash)
	}
	return nil
}

// WriteTo serialises the snapshot. It implements io.WriterTo.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	var e Enc
	e.buf = append(e.buf, Magic[:]...)
	e.U16(Version)
	e.String(s.Predictor)
	e.U64(s.ConfigHash)
	e.U32(uint32(len(s.sections)))
	for i := range s.sections {
		e.String(s.sections[i].name)
		e.U64(uint64(len(s.sections[i].enc.buf)))
		e.buf = append(e.buf, s.sections[i].enc.buf...)
	}
	n, err := w.Write(e.buf)
	return int64(n), err
}

// header is the identity portion of a snapshot, ahead of its sections.
type header struct {
	Version    uint16
	Predictor  string
	ConfigHash uint64
	Sections   int
}

// readHeader parses the fixed header off the front of d.
func readHeader(d *Dec) (header, error) {
	var h header
	if !d.need(len(Magic)) {
		return h, fmt.Errorf("%w (%d bytes)", ErrTruncated, len(d.buf))
	}
	if string(d.take(len(Magic))) != string(Magic[:]) {
		return h, fmt.Errorf("%w (bad magic)", ErrBadMagic)
	}
	h.Version = d.U16()
	if *d.err != nil {
		return h, *d.err
	}
	if h.Version != Version {
		return h, fmt.Errorf("%w: snapshot v%d, codec v%d", ErrVersion, h.Version, Version)
	}
	h.Predictor = d.String()
	h.ConfigHash = d.U64()
	n := d.U32()
	if *d.err != nil {
		return h, *d.err
	}
	if n > maxSections {
		return h, fmt.Errorf("%w: header claims %d sections", ErrCorrupt, n)
	}
	h.Sections = int(n)
	return h, nil
}

// Read decodes a full snapshot from r, validating framing and returning
// typed errors (ErrBadMagic, ErrVersion, ErrTruncated, ErrCorrupt) on
// malformed input. It never panics on hostile bytes.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("state: read snapshot: %w", err)
	}
	d := newDec(data)
	h, err := readHeader(d)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Predictor: h.Predictor, ConfigHash: h.ConfigHash}
	seen := make(map[string]bool, h.Sections)
	for i := 0; i < h.Sections; i++ {
		name := d.String()
		length := d.U64()
		if *d.err != nil {
			return nil, *d.err
		}
		if length > uint64(d.Remaining()) {
			return nil, fmt.Errorf("%w: section %q claims %d bytes, %d remain", ErrTruncated, name, length, d.Remaining())
		}
		if seen[name] {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		seen[name] = true
		payload := append([]byte(nil), d.take(int(length))...)
		s.sections = append(s.sections, section{name: name, enc: Enc{buf: payload}})
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d sections", ErrCorrupt, d.Remaining(), h.Sections)
	}
	return s, nil
}

// Load is Read followed by Verify — the one-call entry point for
// LoadState implementations.
func Load(r io.Reader, predictor string, configHash uint64) (*Snapshot, error) {
	s, err := Read(r)
	if err != nil {
		return nil, err
	}
	if err := s.Verify(predictor, configHash); err != nil {
		return nil, err
	}
	return s, nil
}

// Enc appends fixed-width little-endian primitives to a section payload.
// The zero value is ready to use.
type Enc struct {
	buf []byte
}

// Len reports the bytes encoded so far.
func (e *Enc) Len() int { return len(e.buf) }

// Data exposes the encoded payload (not a copy) — for tests and size
// accounting.
func (e *Enc) Data() []byte { return e.buf }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a little-endian uint16.
func (e *Enc) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I8 appends a signed byte.
func (e *Enc) I8(v int8) { e.U8(uint8(v)) }

// I32 appends a little-endian int32.
func (e *Enc) I32(v int32) { e.U32(uint32(v)) }

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64 — host-width independence for counts.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// Bool appends one byte, 0 or 1.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// String appends a u32 length prefix and the raw bytes.
func (e *Enc) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends a u32 length prefix and the raw bytes.
func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// I8s appends a u32 count followed by the raw signed bytes.
func (e *Enc) I8s(v []int8) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.buf = append(e.buf, uint8(x))
	}
}

// I32s appends a u32 count followed by little-endian int32 values.
func (e *Enc) I32s(v []int32) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.I32(x)
	}
}

// U32s appends a u32 count followed by little-endian uint32 values.
func (e *Enc) U32s(v []uint32) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U32(x)
	}
}

// U64s appends a u32 count followed by little-endian uint64 values.
func (e *Enc) U64s(v []uint64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U64(x)
	}
}

// Bools appends a u32 count followed by the values packed 8 per byte,
// LSB first.
func (e *Enc) Bools(v []bool) {
	e.U32(uint32(len(v)))
	var cur uint8
	for i, x := range v {
		if x {
			cur |= 1 << (i & 7)
		}
		if i&7 == 7 {
			e.buf = append(e.buf, cur)
			cur = 0
		}
	}
	if len(v)&7 != 0 {
		e.buf = append(e.buf, cur)
	}
}

// Dec reads fixed-width little-endian primitives from a section payload.
// It is sticky on error: the first failure is recorded, every later
// accessor returns a zero value, and Snapshot.Err surfaces the failure.
// The error is shared by every cursor of one snapshot, so a failure in
// one section also stops the reads of the others.
type Dec struct {
	buf  []byte
	off  int
	name string
	err  *error
}

// newDec returns a cursor over buf with an error of its own.
func newDec(buf []byte) *Dec { return &Dec{buf: buf, err: new(error)} }

// Remaining reports the undecoded byte count.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// fail records err as the sticky decode error if none is set.
func (d *Dec) fail(err error) {
	if *d.err == nil {
		*d.err = err
	}
}

// Corruptf records a semantic failure, such as a value out of range or
// a register that disagrees with its ring, as ErrCorrupt naming the
// section. It does nothing after an earlier failure.
func (d *Dec) Corruptf(format string, args ...any) {
	if *d.err == nil {
		*d.err = fmt.Errorf("%w: section %q: %s", ErrCorrupt, d.name, fmt.Sprintf(format, args...))
	}
}

// need checks that n more bytes are available, recording ErrTruncated
// otherwise.
func (d *Dec) need(n int) bool {
	if *d.err != nil {
		return false
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.fail(fmt.Errorf("%w: section %q: need %d bytes at offset %d, have %d", ErrTruncated, d.name, n, d.off, len(d.buf)-d.off))
		return false
	}
	return true
}

// take consumes and returns the next n bytes (caller must have checked
// need).
func (d *Dec) take(n int) []byte {
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	return d.take(1)[0]
}

// U16 reads a little-endian uint16.
func (d *Dec) U16() uint16 {
	if !d.need(2) {
		return 0
	}
	return binary.LittleEndian.Uint16(d.take(2))
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	return binary.LittleEndian.Uint32(d.take(4))
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	return binary.LittleEndian.Uint64(d.take(8))
}

// I8 reads a signed byte.
func (d *Dec) I8() int8 { return int8(d.U8()) }

// I32 reads a little-endian int32.
func (d *Dec) I32() int32 { return int32(d.U32()) }

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded as int64.
func (d *Dec) Int() int { return int(d.I64()) }

// Bool reads one byte that must be 0 or 1.
func (d *Dec) Bool() bool {
	b := d.U8()
	if b > 1 {
		d.Corruptf("bool byte %#x", b)
		return false
	}
	return b == 1
}

// String reads a u32-length-prefixed string.
func (d *Dec) String() string {
	n := int(d.U32())
	if !d.need(n) {
		return ""
	}
	return string(d.take(n))
}

// count reads a slice's u32 count and checks it against n, the length
// the instance expects, then that size bytes of payload follow.
func (d *Dec) count(n, size int) bool {
	if c := d.U32(); int64(c) != int64(n) {
		d.Corruptf("%d values where the instance holds %d", c, n)
	}
	return d.need(n * size)
}

// The slice readers read a u32 count that must equal n, then the
// values. They always return n values, zero after a failure, so a
// loader can index them by its own geometry before Snapshot.Err.

// Bytes reads n raw bytes (copied out of the payload).
func (d *Dec) Bytes(n int) []byte {
	out := make([]byte, n)
	if d.count(n, 1) {
		copy(out, d.take(n))
	}
	return out
}

// I8s reads n signed bytes.
func (d *Dec) I8s(n int) []int8 {
	out := make([]int8, n)
	if d.count(n, 1) {
		for i, b := range d.take(n) {
			out[i] = int8(b)
		}
	}
	return out
}

// I32s reads n little-endian int32 values.
func (d *Dec) I32s(n int) []int32 {
	out := make([]int32, n)
	if d.count(n, 4) {
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(d.take(4)))
		}
	}
	return out
}

// U32s reads n little-endian uint32 values.
func (d *Dec) U32s(n int) []uint32 {
	out := make([]uint32, n)
	if d.count(n, 4) {
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(d.take(4))
		}
	}
	return out
}

// U64s reads n little-endian uint64 values.
func (d *Dec) U64s(n int) []uint64 {
	out := make([]uint64, n)
	if d.count(n, 8) {
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(d.take(8))
		}
	}
	return out
}

// Bools reads n bools packed 8 per byte.
func (d *Dec) Bools(n int) []bool {
	out := make([]bool, n)
	nb := (n + 7) / 8
	if !d.count(n, 0) || !d.need(nb) {
		return out
	}
	raw := d.take(nb)
	for i := range out {
		out[i] = raw[i/8]&(1<<(i&7)) != 0
	}
	// Trailing pad bits must be zero, or two different byte streams
	// would decode to the same state and byte-stability breaks.
	if n&7 != 0 && raw[nb-1]>>(n&7) != 0 {
		d.Corruptf("nonzero pad bits in packed bools")
	}
	return out
}

// Hash accumulates a predictor's configuration identity as FNV-1a over
// a canonical little-endian field encoding. Constructors feed every
// parameter that shapes table geometry or behaviour, so a snapshot from
// a differently-sized instance fails Verify instead of misloading.
type Hash struct {
	sum uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewHash starts a config hash seeded with the predictor kind tag.
func NewHash(kind string) *Hash {
	h := &Hash{sum: fnvOffset}
	h.String(kind)
	return h
}

func (h *Hash) byte(b byte) {
	h.sum ^= uint64(b)
	h.sum *= fnvPrime
}

// U64 folds a uint64 into the hash.
func (h *Hash) U64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

// Int folds an int into the hash.
func (h *Hash) Int(v int) { h.U64(uint64(int64(v))) }

// Bool folds a bool into the hash.
func (h *Hash) Bool(v bool) {
	if v {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

// String folds a length-prefixed string into the hash.
func (h *Hash) String(s string) {
	h.Int(len(s))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// Ints folds a length-prefixed int slice into the hash.
func (h *Hash) Ints(v []int) {
	h.Int(len(v))
	for _, x := range v {
		h.Int(x)
	}
}

// Sum returns the accumulated hash.
func (h *Hash) Sum() uint64 { return h.sum }
