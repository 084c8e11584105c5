// KeyMap: the table keys of a bias-free predictor as one linear map of
// its BF-GHR. The BF-GHR is a composite bit vector per channel — a
// short unfiltered prefix followed by fixed-width segment words
// (Fig. 7) — and every index or tag input BF-TAGE and BF-GEHL hash is
// an XOR of folds of it. A fold is GF(2)-linear: vector bit b of a
// width-w fold lands at bit b mod w, so a fold shifted left by k puts it
// at b mod w + k. Every key field is therefore a fixed linear function
// of the vector bits, and all of a predictor's fields, packed side by
// side into a few 64-bit words, are one linear map from the vector to
// those words.
//
// The map is tabulated once per predictor. Each (channel, bit) gets a
// column: the key words a lone set bit there would produce. Each 4-bit
// group (nibble) of the prefix and of each segment word gets a 16-row
// table of the XOR of its columns, derived row by row as
// row[v] = row[v&(v-1)] ^ col[tz(v)]. Sync takes every segment's
// current words and, in one pass with no per-segment branch, XORs into
// the maintained words each nibble's row of its change since the last
// Sync (row 0, zero, when unchanged). A lookup XORs the prefix rows on
// top; a rebuild is Reset then Sync. Narrow widths (w smaller than a
// segment, where one segment wraps a fold several times) need no
// special case: the columns already hold the wrapped positions.
package history

// Term is one fold term of a key field: the first N bits of channel
// Ch's vector, XOR-folded to Width bits and shifted left by Shift.
type Term struct {
	Ch, N, Width, Shift int
}

// fieldLoc places a field in the packed key words.
type fieldLoc struct {
	word  int
	shift uint
	mask  uint64
}

// KeyMap maintains a set of key fields over up to two parallel
// composite vectors of identical geometry (prefixBits bits of
// unfiltered head followed by numSegs segment words of segSize bits
// each). Fields are declared at construction; Sync brings the map to
// the current segment words; Lookup returns the packed key words given
// the live prefix words, and Field extracts one field from them.
type KeyMap struct {
	prefixBits, segSize, numSegs int
	terms                        [][]Term
	fields                       []fieldLoc
	nw                           int // key words, padded to a multiple of 4
	preNibs, segNibs             int // nibbles per prefix / per segment word
	// ch1 is 1 when some field reads channel 1. Without one, channel
	// 1 has no rows and is never read.
	ch1 int
	// rows holds, for each four-word chunk of the key words, nRows
	// rows: 16 per nibble group, the prefix groups (channel, nibble)
	// first, then the segment groups (channel, segment, nibble) from
	// group segBase on. It is tabulated at first use, so a predictor
	// built only to be inspected (a registry capability probe) never
	// pays for it.
	rows           [][4]uint64
	nRows, segBase int
	// keys is the segment region's contribution to the key words as of
	// the segment words in last (channel 0's words, then channel 1's
	// if some field reads it). delta is Sync's scratch, in last's order.
	keys, last, delta []uint64
}

// NewKeyMap lays out the fields over the given vector geometry. Each
// field is the XOR of its terms; a field's width is the widest term's
// Width+Shift, at most 64. Fields are packed into 64-bit words without
// straddling. prefixBits must be in [0, 64] and segSize in [1, 64].
// The map keeps fields; the caller must not modify them.
func NewKeyMap(prefixBits, segSize, numSegs int, fields [][]Term) *KeyMap {
	if prefixBits < 0 || prefixBits > 64 {
		panic("history: key map prefix bits out of range")
	}
	if segSize < 1 || segSize > 64 {
		panic("history: key map segment size out of range [1,64]")
	}
	if numSegs < 0 {
		panic("history: key map segment count negative")
	}
	total := prefixBits + numSegs*segSize
	m := &KeyMap{
		preNibs:    (prefixBits + 3) / 4,
		segNibs:    (segSize + 3) / 4,
		terms:      fields,
		prefixBits: prefixBits,
		segSize:    segSize,
		numSegs:    numSegs,
	}
	// Pack each field into the first word with room for it.
	var used []int
	for _, terms := range fields {
		width := 0
		for _, t := range terms {
			if t.Ch < 0 || t.Ch > 1 {
				panic("history: key map channel out of range [0,1]")
			}
			if t.Width < 1 || t.Shift < 0 || t.Width+t.Shift > 64 {
				panic("history: key map term width out of range")
			}
			if t.N < 1 || t.N > total {
				panic("history: key map term length exceeds vector")
			}
			m.ch1 = max(m.ch1, t.Ch)
			width = max(width, t.Width+t.Shift)
		}
		word := 0
		for word < len(used) && used[word]+width > 64 {
			word++
		}
		if word == len(used) {
			used = append(used, 0)
		}
		m.fields = append(m.fields, fieldLoc{word: word, shift: uint(used[word]), mask: lowMask(width)})
		used[word] += width
	}
	m.nw = (len(used) + 3) &^ 3
	m.keys = make([]uint64, m.nw)
	m.last = make([]uint64, (1+m.ch1)*numSegs)
	m.delta = make([]uint64, len(m.last))
	m.segBase = (1 + m.ch1) * m.preNibs
	m.nRows = 16 * (m.segBase + (1+m.ch1)*numSegs*m.segNibs)
	return m
}

// tabulate builds the nibble tables: one group of 16 rows per
// (channel, nibble) of the prefix and then of each segment.
func (m *KeyMap) tabulate() {
	prefixBits, segSize, numSegs, nw := m.prefixBits, m.segSize, m.numSegs, m.nw
	total := prefixBits + numSegs*segSize
	// Row 1<<j of a group is the column of the group's bit j: the key
	// words a lone set bit there produces, i.e. every field's fold of
	// that unit vector. unit[b] is the offset of vector bit b's column
	// on channel 0; channel 1's groups follow channel 0's within the
	// prefix and within the segment region.
	nRows := m.nRows
	m.rows = make([][4]uint64, nw/4*nRows)
	unit := make([]int, total)
	for b := range unit {
		g, j := b/4, b%4
		if b >= prefixBits {
			s, o := (b-prefixBits)/segSize, (b-prefixBits)%segSize
			g, j = m.segBase+s*m.segNibs+o/4, o%4
		}
		unit[b] = 16*g + 1<<j
	}
	for f, terms := range m.terms {
		loc := m.fields[f]
		rows := m.rows[loc.word/4*nRows:]
		for _, t := range terms {
			pos := 0 // b mod t.Width
			for b := 0; b < t.N; b++ {
				groups := m.preNibs // from a bit's channel-0 group to its channel-1 group
				if b >= prefixBits {
					groups = numSegs * m.segNibs
				}
				rows[unit[b]+16*t.Ch*groups][loc.word%4] ^= 1 << (loc.shift + uint(t.Shift+pos))
				if pos++; pos == t.Width {
					pos = 0
				}
			}
		}
	}
	// The other rows by the low-bit recurrence
	// row[v] = row[v&(v-1)] ^ col[tz(v)], col[tz(v)] being row[v&-v].
	for g := 0; g < len(m.rows); g += 16 {
		for v := 3; v < 16; v++ {
			if lo := v & -v; lo != v {
				x, y := &m.rows[g+v-lo], &m.rows[g+lo]
				m.rows[g+v] = [4]uint64{x[0] ^ y[0], x[1] ^ y[1], x[2] ^ y[2], x[3] ^ y[3]}
			}
		}
	}
}

// Words returns the number of key words Lookup writes.
func (m *KeyMap) Words() int { return m.nw }

// Reset returns the map to all-zero segment words, the state of empty
// segments. A rebuild from a snapshot is Reset, then Sync with the
// restored words.
func (m *KeyMap) Reset() {
	clear(m.keys)
	clear(m.last)
}

// Sync brings the maintained key words to the current segment words:
// taken on channel 0 and pcs on channel 1, one word per segment (bit j
// = slot j; bits at and beyond segSize are ignored). pcs is not read
// when no field reads channel 1. Each nibble of each word XORs in the
// row its change since the last Sync selects.
func (m *KeyMap) Sync(taken, pcs []uint64) {
	if m.rows == nil {
		m.tabulate()
	}
	n, last, delta := m.numSegs, m.last, m.delta
	for s, w := range taken[:n] {
		delta[s], last[s] = w^last[s], w
	}
	for s, w := range pcs[:len(last)-n] {
		delta[n+s], last[n+s] = w^last[n+s], w
	}
	for c := 0; c < m.nw; c += 4 {
		xorRows((*[4]uint64)(m.keys[c:]), m.rows[c/4*m.nRows+16*m.segBase:], delta, m.segNibs)
	}
}

// xorRows XORs into one four-word chunk k of the key words, for each of
// the nibs nibbles of each word of ds, the row the nibble selects from
// its group of 16; the groups run consecutively from rows[0]. It
// accumulates in registers.
func xorRows(k *[4]uint64, rows [][4]uint64, ds []uint64, nibs int) {
	k0, k1, k2, k3 := k[0], k[1], k[2], k[3]
	g := 0
	for _, d := range ds {
		for range nibs {
			r := &rows[g+int(d&15)]
			k0 ^= r[0]
			k1 ^= r[1]
			k2 ^= r[2]
			k3 ^= r[3]
			d >>= 4
			g += 16
		}
	}
	*k = [4]uint64{k0, k1, k2, k3}
}

// Lookup writes the key words into out (len Words()) given the live
// prefix words of the two channels (bit i = vector bit i; bits at and
// beyond prefixBits are ignored). p1 is not read when no field reads
// channel 1.
func (m *KeyMap) Lookup(p0, p1 uint64, out []uint64) {
	if m.rows == nil {
		m.tabulate()
	}
	copy(out, m.keys)
	p := [2]uint64{p0, p1}
	for c := 0; c < m.nw; c += 4 {
		xorRows((*[4]uint64)(out[c:]), m.rows[c/4*m.nRows:], p[:1+m.ch1], m.preNibs)
	}
}

// Field extracts field f from key words produced by Lookup. It equals
// the XOR of the field's terms, each FoldWords over the composite
// vector of its channel, shifted.
func (m *KeyMap) Field(words []uint64, f int) uint64 {
	l := m.fields[f]
	return words[l.word] >> l.shift & l.mask
}
