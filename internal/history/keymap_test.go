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

// keyMapGeometry draws a key map geometry from r: a prefix of 0–64
// bits, up to 20 segments of 1–64 bits (at most 1024 bits of segments),
// and one to 24 random fields of one to three fold terms, widths 1–22
// shifted anywhere in a word, on channel 0 only (nch 1, BF-GEHL's
// shape) or on both. Fields that wide often pack into more than one
// four-word chunk.
func keyMapGeometry(r *rng.SplitMix64) (prefixBits, segSize, numSegs, nch int, fields [][]Term) {
	prefixBits = r.Intn(65)
	segSize = 1 + r.Intn(64)
	numSegs = min(r.Intn(1+1024/segSize), 20)
	total := prefixBits + numSegs*segSize
	if total == 0 {
		return
	}
	nch = 1 + r.Intn(2)
	fields = make([][]Term, 1+r.Intn(24))
	for i := range fields {
		for j := 0; j <= r.Intn(3); j++ {
			w := 1 + r.Intn(22)
			fields[i] = append(fields[i], Term{
				Ch: r.Intn(nch), N: 1 + r.Intn(total), Width: w, Shift: r.Intn(64 - w + 1),
			})
		}
	}
	return
}

// keyMapSeeds is FuzzKeyMap's seed corpus. TestKeyMapSeedsCoverGeometries
// pins that it reaches every geometry class Sync must handle.
var keyMapSeeds = []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 29}

// FuzzKeyMap builds a key map of random geometry (keyMapGeometry) and
// syncs it to a random stream of segment words, in which each segment
// keeps its words with probability one half and a changed word may
// carry junk above segSize, which the map must ignore. After every Sync
// it checks every field against FoldWords over the composed vectors,
// under a random live prefix. A one-channel map is sometimes synced
// with no channel-1 words at all. At the end, Reset then one Sync of the
// last words (the snapshot-restore path) must reproduce the key words.
func FuzzKeyMap(f *testing.F) {
	for _, seed := range keyMapSeeds {
		f.Add(seed, uint8(100))
	}
	f.Fuzz(func(t *testing.T, seed uint64, steps uint8) {
		r := rng.New(seed)
		prefixBits, segSize, numSegs, nch, fields := keyMapGeometry(r)
		if fields == nil {
			return
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
		for step := 0; step < int(steps); step++ {
			for ch := range segs {
				for s := range segs[ch] {
					if r.Bool(0.5) {
						segs[ch][s] = r.Uint64()
						if r.Bool(0.5) {
							segs[ch][s] &= lowMask(segSize)
						}
					}
				}
			}
			pcs := segs[1]
			if nch == 1 && r.Bool(0.5) {
				pcs = nil
			}
			m.Sync(segs[0], pcs)
			check(step)
		}
		synced := append([]uint64(nil), m.keys...)
		m.Reset()
		m.Sync(segs[0], segs[1])
		for i, w := range m.keys {
			if w != synced[i] {
				t.Fatalf("key word %d: rebuilt %#x, synced %#x", i, w, synced[i])
			}
		}
	})
}

// TestKeyMapSeedsCoverGeometries pins that FuzzKeyMap's seed corpus,
// which plain go test runs, covers the geometries Sync has one path
// for: segments of 1–32 and 33–64 bits, maps of one and of several
// four-word chunks, on one channel and on two.
func TestKeyMapSeedsCoverGeometries(t *testing.T) {
	type class struct {
		longSegs, wide bool
		nch            int
	}
	seen := map[class]bool{}
	for _, seed := range keyMapSeeds {
		prefixBits, segSize, numSegs, nch, fields := keyMapGeometry(rng.New(seed))
		if fields == nil || numSegs == 0 {
			continue
		}
		m := NewKeyMap(prefixBits, segSize, numSegs, fields)
		seen[class{segSize > 32, m.Words() > 4, nch}] = true
	}
	for _, long := range []bool{false, true} {
		for _, wide := range []bool{false, true} {
			for nch := 1; nch <= 2; nch++ {
				if !seen[class{long, wide, nch}] {
					t.Errorf("no seed has segments longer than 32 bits = %v, more than four key words = %v, %d channel(s)", long, wide, nch)
				}
			}
		}
	}
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
			// Mutate one segment word (the map syncs to it) and churn
			// the prefix (the map never sees it — Lookup takes it live).
			segs[r.Intn(numSegs)] = r.Uint64() & lowMask(segSize)
			m.Sync(segs, nil)
			checkFolds(t, m, regs, r.Uint64(), segs, prefixBits, segSize)
		}
	}
}

// TestFoldPipelineRebuild checks that Reset + one Sync of the segment
// words reproduces the key words 500 incremental Syncs reached — the
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
		segs[r.Intn(numSegs)] = r.Uint64() & lowMask(segSize)
		m.Sync(segs, nil)
	}
	incremental := append([]uint64(nil), m.keys...)
	m.Reset()
	m.Sync(segs, nil)
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
	segs := []uint64{0xFF, 0, 0, 0xFF}
	m.Sync(segs, nil)
	checkFolds(t, m, regs, 0xBEEF, segs, 16, 8)
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
		segs[r.Intn(16)] = r.Uint64() & 0xFF
		m.Sync(segs, nil)
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
	var taken, pcs [16]uint64
	for s := range taken {
		taken[s], pcs[s] = uint64(s)*0x5D&0xFF, uint64(s)*0xA3&0xFF
	}
	m.Sync(taken[:], pcs[:])
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

// BenchmarkKeyMapSync measures the per-commit maintenance of the
// bf-tage-10 key words: one Sync of the 16 segments' words on both
// channels, two of which changed. Sync's cost does not depend on how
// many did: every nibble XORs in a row, row 0 when it is unchanged.
func BenchmarkKeyMapSync(b *testing.B) {
	m := NewKeyMap(16, 8, 16, tageFields())
	var taken, pcs [16]uint64
	m.Sync(taken[:], pcs[:]) // tabulates the rows
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		taken[i&15] = uint64(i) & 0xFF
		pcs[i>>4&15] = uint64(i>>4) & 0xFF
		m.Sync(taken[:], pcs[:])
	}
}
