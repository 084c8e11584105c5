package history

import (
	"testing"

	"bfbp/internal/rng"
)

// composeVec builds the composite bit vector a KeyMap models:
// prefixBits bits of prefix followed by one segSize-bit word per segment.
func composeVec(prefix uint64, prefixBits int, segs []uint64, segSize int) *BitVec {
	var v BitVec
	v.Append(prefix&lowMask(prefixBits), prefixBits)
	for _, w := range segs {
		v.Append(w&lowMask(segSize), segSize)
	}
	return &v
}

// FuzzKeyMap builds key maps of random geometry — prefix 0–64 bits,
// segments of 1–64 bits, random fields of one to three fold terms with
// widths 1–22 on one or both channels — applies random segment-word mutations
// and checks every field against FoldWords over the composed vectors
// after each one. It also checks that Reset plus feeding each segment's
// absolute words (the snapshot-restore path) reproduces the
// incrementally maintained key words.
func FuzzKeyMap(f *testing.F) {
	f.Add(uint64(0), uint8(0))
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(100))
	}
	f.Fuzz(func(t *testing.T, seed uint64, steps uint8) {
		r := rng.New(seed)
		prefixBits := r.Intn(65)
		segSize := 1 + r.Intn(64)
		numSegs := r.Intn(1 + 1024/segSize)
		if numSegs > 20 {
			numSegs = 20
		}
		total := prefixBits + numSegs*segSize
		if total == 0 {
			return
		}
		// Single-channel maps (BF-GEHL's shape) must ignore channel 1.
		nch := 1 + r.Intn(2)
		fields := make([][]Term, 1+r.Intn(12))
		for i := range fields {
			for j := 0; j <= r.Intn(3); j++ {
				w := 1 + r.Intn(22)
				fields[i] = append(fields[i], Term{
					Ch: r.Intn(nch), N: 1 + r.Intn(total), Width: w, Shift: r.Intn(64 - w + 1),
				})
			}
		}
		m := NewKeyMap(prefixBits, segSize, numSegs, fields)
		segs := [2][]uint64{make([]uint64, numSegs), make([]uint64, numSegs)}
		out := make([]uint64, m.Words())
		check := func(step int) {
			p0, p1 := r.Uint64(), r.Uint64()
			vecs := [2]*BitVec{
				composeVec(p0, prefixBits, segs[0], segSize),
				composeVec(p1, prefixBits, segs[1], segSize),
			}
			m.Lookup(p0, p1, out)
			for i, terms := range fields {
				var want uint64
				for _, tm := range terms {
					want ^= FoldWords(vecs[tm.Ch].Words(), tm.N, tm.Width) << uint(tm.Shift)
				}
				if got := m.Field(out, i); got != want {
					t.Fatalf("step %d field %d %+v: key map %#x, FoldWords %#x", step, i, terms, got, want)
				}
			}
		}
		check(-1)
		for step := 0; step < int(steps) && numSegs > 0; step++ {
			// Mutate one segment's words; the map sees the XOR deltas,
			// junk above segSize included, which it must ignore.
			s := r.Intn(numSegs)
			n0, n1 := r.Uint64()&lowMask(segSize), r.Uint64()&lowMask(segSize)
			junk := r.Uint64() &^ lowMask(segSize)
			m.SegmentDelta(s, segs[0][s]^n0^junk, segs[1][s]^n1)
			segs[0][s], segs[1][s] = n0, n1
			check(step)
		}
		incremental := append([]uint64(nil), m.keys...)
		m.Reset()
		for s := 0; s < numSegs; s++ {
			m.SegmentDelta(s, segs[0][s], segs[1][s])
		}
		for i, w := range m.keys {
			if w != incremental[i] {
				t.Fatalf("key word %d: rebuilt %#x, incremental %#x", i, w, incremental[i])
			}
		}
	})
}

// foldFields declares one single-term channel-0 field per (n, w) pair:
// a plain width-w fold of the vector's first n bits.
func foldFields(regs [][2]int) [][]Term {
	fields := make([][]Term, len(regs))
	for i, nw := range regs {
		fields[i] = []Term{{Ch: 0, N: nw[0], Width: nw[1]}}
	}
	return fields
}

// checkFolds asserts every plain-fold field of m agrees with the
// FoldWords reference over the composite vector.
func checkFolds(t *testing.T, m *KeyMap, regs [][2]int, prefix uint64, segs []uint64, prefixBits, segSize int) {
	t.Helper()
	vec := composeVec(prefix, prefixBits, segs, segSize)
	out := make([]uint64, m.Words())
	m.Lookup(prefix, 0, out)
	for f, nw := range regs {
		want := FoldWords(vec.Words(), nw[0], nw[1])
		if got := m.Field(out, f); got != want {
			t.Fatalf("field %d (n=%d w=%d): key map %#x, FoldWords %#x", f, nw[0], nw[1], got, want)
		}
	}
}

// TestFoldPipelineEquivalence drives random segment mutations through
// key maps of random geometry and checks every plain-fold field against
// FoldWords after each step — the bit-exactness property BF-TAGE and
// BF-GEHL rely on.
func TestFoldPipelineEquivalence(t *testing.T) {
	r := rng.New(0xF01D)
	for trial := 0; trial < 50; trial++ {
		prefixBits := r.Intn(33)  // 0..32
		segSize := 1 + r.Intn(16) // 1..16
		numSegs := 1 + r.Intn(20) // 1..20
		total := prefixBits + numSegs*segSize
		var regs [][2]int
		for i := 0; i < 1+r.Intn(8); i++ {
			regs = append(regs, [2]int{1 + r.Intn(total), 1 + r.Intn(40)})
		}
		m := NewKeyMap(prefixBits, segSize, numSegs, foldFields(regs))
		segs := make([]uint64, numSegs)
		for step := 0; step < 60; step++ {
			// Mutate one segment word (the map sees the XOR delta) and
			// churn the prefix (the map never sees it — Lookup takes it
			// live).
			s := r.Intn(numSegs)
			next := r.Uint64() & lowMask(segSize)
			m.SegmentDelta(s, segs[s]^next, 0)
			segs[s] = next
			checkFolds(t, m, regs, r.Uint64(), segs, prefixBits, segSize)
		}
	}
}

// TestFoldPipelineRebuild checks that Reset + feeding each segment's
// absolute word reproduces the incrementally maintained key words — the
// snapshot-restore path.
func TestFoldPipelineRebuild(t *testing.T) {
	r := rng.New(0xF02D)
	const (
		prefixBits = 16
		segSize    = 8
		numSegs    = 16
	)
	regs := [][2]int{{3, 10}, {8, 8}, {14, 13}, {26, 11}, {40, 12}, {70, 9}, {118, 14}, {142, 12}}
	m := NewKeyMap(prefixBits, segSize, numSegs, foldFields(regs))
	segs := make([]uint64, numSegs)
	for step := 0; step < 500; step++ {
		s := r.Intn(numSegs)
		next := r.Uint64() & lowMask(segSize)
		m.SegmentDelta(s, segs[s]^next, 0)
		segs[s] = next
	}
	incremental := append([]uint64(nil), m.keys...)
	m.Reset()
	for s, w := range segs {
		m.SegmentDelta(s, w, 0)
	}
	for i, word := range m.keys {
		if word != incremental[i] {
			t.Fatalf("key word %d: rebuilt %#x, incremental %#x", i, word, incremental[i])
		}
	}
	checkFolds(t, m, regs, r.Uint64(), segs, prefixBits, segSize)
}

// TestFoldPipelineShortRegisters pins fields that never reach the
// segment region: their fold must be the pure prefix fold and segment
// mutations must not disturb them.
func TestFoldPipelineShortRegisters(t *testing.T) {
	regs := [][2]int{
		{10, 7},  // entirely inside the prefix
		{16, 12}, // exactly the prefix
		{17, 12}, // one bit into segment 0
	}
	const short, exact, long = 0, 1, 2
	m := NewKeyMap(16, 8, 4, foldFields(regs))
	m.SegmentDelta(0, 0xFF, 0)
	m.SegmentDelta(3, 0xFF, 0)
	checkFolds(t, m, regs, 0xBEEF, []uint64{0xFF, 0, 0, 0xFF}, 16, 8)
	// Prefix-only fields must be a pure function of the prefix: with a
	// zero prefix they fold to zero no matter what the segments hold.
	out := make([]uint64, m.Words())
	m.Lookup(0, 0, out)
	if got := m.Field(out, short); got != 0 {
		t.Fatalf("prefix-only field folded segment bits: %#x", got)
	}
	if got := m.Field(out, exact); got != 0 {
		t.Fatalf("prefix-exact field folded segment bits: %#x", got)
	}
	if got := m.Field(out, long); got == 0 {
		t.Fatal("segment-covering field ignored segment bits")
	}
}

// TestFoldPipelineNarrowWidths exercises widths smaller than the segment
// size, where one segment word wraps a fold several times.
func TestFoldPipelineNarrowWidths(t *testing.T) {
	r := rng.New(0xF03D)
	regs := [][2]int{{144, 1}, {144, 2}, {144, 3}, {100, 5}, {77, 6}}
	m := NewKeyMap(16, 8, 16, foldFields(regs))
	segs := make([]uint64, 16)
	for step := 0; step < 200; step++ {
		s := r.Intn(16)
		next := r.Uint64() & 0xFF
		m.SegmentDelta(s, segs[s]^next, 0)
		segs[s] = next
		checkFolds(t, m, regs, r.Uint64(), segs, 16, 8)
	}
}

// tageFields is the field family of the flagship bf-tage-10 geometry:
// per table, an index field (outcome fold plus address fold shifted
// one) and a tag field (two outcome folds).
func tageFields() [][]Term {
	hist := []int{3, 8, 14, 26, 40, 54, 70, 94, 118, 142}
	logE := []int{11, 11, 11, 12, 12, 12, 11, 11, 10, 10}
	tagB := []int{7, 7, 8, 9, 10, 11, 11, 13, 14, 15}
	var fields [][]Term
	for i, l := range hist {
		fields = append(fields,
			[]Term{{0, l, logE[i], 0}, {1, l, logE[i] - 1, 1}},
			[]Term{{0, l, tagB[i], 0}, {0, l, tagB[i] - 1, 1}})
	}
	return fields
}

// TestKeyMapPacking pins the packing of the flagship geometries: the
// bf-tage-10 field family fits four words and bf-gehl's default two.
func TestKeyMapPacking(t *testing.T) {
	var gehl [][]Term
	for _, l := range GeometricRange(2, 144, 7) {
		gehl = append(gehl, []Term{{0, l, 13, 0}})
	}
	packed := func(m *KeyMap) int {
		n := 0
		for _, l := range m.fields {
			n = max(n, l.word+1)
		}
		return n
	}
	if w := packed(NewKeyMap(16, 8, 16, tageFields())); w != 4 {
		t.Errorf("bf-tage-10 fields pack into %d words, want 4", w)
	}
	if w := packed(NewKeyMap(16, 8, 16, gehl)); w != 2 {
		t.Errorf("bf-gehl fields pack into %d words, want 2", w)
	}
}

// BenchmarkKeyMapLookup measures the per-prediction lookup of the
// bf-tage-10 key words: eight prefix rows on top of the maintained
// words, then every field extracted.
func BenchmarkKeyMapLookup(b *testing.B) {
	fields := tageFields()
	m := NewKeyMap(16, 8, 16, fields)
	for s := 0; s < 16; s++ {
		m.SegmentDelta(s, uint64(s)*0x5D, uint64(s)*0xA3&0xFF)
	}
	out := make([]uint64, m.Words())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(uint64(i)*0x9E3779B97F4A7C15&0xFFFF, uint64(i)*0xC2B2AE3D27D4EB4F&0xFFFF, out)
		for f := range fields {
			keySink ^= m.Field(out, f)
		}
	}
}

var keySink uint64

// BenchmarkKeyMapSegmentDelta measures the per-mutation maintenance
// cost: one row per nibble per channel XORed into the key words.
func BenchmarkKeyMapSegmentDelta(b *testing.B) {
	m := NewKeyMap(16, 8, 16, tageFields())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SegmentDelta(i&15, uint64(i)|1, uint64(i>>4)&0xFF)
	}
}
