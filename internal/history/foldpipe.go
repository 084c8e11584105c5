// FoldPipeline: incrementally maintained folded histories over a
// composite bit vector of the BF-GHR shape — a short unfiltered prefix
// followed by fixed-width segment words (Fig. 7). BF-TAGE and BF-GEHL
// used to rebuild that vector and re-fold it per table per prediction
// (buildGHR + FoldWords dominated their profiles); the pipeline instead
// maintains every register's fold of the segment region *incrementally*,
// exploiting that the fold is XOR-linear in the vector's bits:
//
//	FoldWords(prefix ++ segments, n, w)
//	  = fold(prefix bits) XOR fold(segment-region bits)
//	fold_w(x << k) = rot_w(fold_w(x), k mod w)
//
// The first identity splits the live prefix (folded from the ring's
// packed head word at lookup time) from the segment region; the second
// reduces a segment's delta — a word of at most segSize bits landing at
// region offset s*segSize — to one fold, one rotation, one XOR into
// each covered register's running value. Segment words are narrow
// (segSize bits, typically 8) and register widths are typically at
// least that, so the delta fold degenerates to the masked delta itself:
// applying a mutation is a shift pair and two XORs per covered
// register, run branch-free over structure-of-arrays apply plans with
// registers that share a (width, rotation, mask) recipe computing the
// folded delta once. Deltas are batched per segment and flushed lazily
// at the next lookup, so the repack bursts a recency-stack commit
// causes collapse into one application per touched segment. Lookup then
// costs one short fold of the prefix word plus one XOR per register.
package history

import "sort"

// FoldPipeline maintains a family of folded-history registers over up
// to two parallel composite vectors of identical geometry (prefixBits
// bits of unfiltered head followed by numSegs segment words of segSize
// bits each). Channels exist because BF-TAGE folds two synchronized
// vectors — segment outcome bits and segment address bits — whose
// mutations arrive together. Registers are added with AddRegister
// (channel 0) or AddRegisterCh; mutations are applied with SegmentDelta
// / SegmentDelta2; Fold and FoldAll2 return current values given the
// live prefix word(s).
type FoldPipeline struct {
	prefixBits int
	segSize    int
	numSegs    int
	// words[ch] packs the segment region of channel ch (segment s's
	// word at bit offset s*segSize), maintained by XOR deltas — the
	// region's ground truth, read only to seed late-added registers and
	// by rebuild checks. Padded to at least two words so straddling
	// stores never bounds-check.
	words [2][]uint64
	// vals[id] is register id's fold of its covered segment-region
	// bits in vector phase, maintained incrementally; the live prefix
	// fold is XORed on top at lookup time.
	vals []uint64
	regs []regInfo
	// segApp[ch][s] is the apply plan a delta to segment s on channel
	// ch runs; pend/dirty batch deltas between flushes. Plans are
	// rebuilt lazily after registers are added.
	segApp    [2][]applyPlan
	pend      [2][]uint64
	dirty     []int32
	inDirty   []bool
	planDirty bool
}

// regInfo is a register's lookup recipe: fold the masked prefix word to
// width w and XOR with the maintained region fold.
type regInfo struct {
	prefixMask uint64 // low min(n, prefixBits) bits of the prefix word
	wMask      uint64 // low w bits
	n          int32
	w          uint8
	src        uint8 // channel
}

// applyPlan is one segment×channel delta-application recipe: group g
// masks the delta, rotates it into phase ((delta&mask)<<rotL |
// (delta&mask)>>rotR, masked to width), and XORs the result into
// members[groups[g-1].end:groups[g].end]. Fast groups require the
// masked delta to already fit the register width (mask <= wMask, the
// universal case when segSize <= width); others fall to the slow list
// and reduce through foldSlow.
type applyPlan struct {
	groups  []fGroup
	members []int32
	slow    []slowEntry
}

// fGroup is one fused mask-rotate recipe shared by a run of registers
// with identical width, rotation, and coverage mask.
type fGroup struct {
	mask  uint64
	wMask uint64
	rotL  uint16
	rotR  uint16
	end   int32
}

// slowEntry is a register whose masked delta can exceed its width and
// therefore needs genuine folding before rotation.
type slowEntry struct {
	mask  uint64
	wMask uint64
	reg   int32
	w     uint8
	rot   uint8
}

// NewFoldPipeline returns an empty pipeline over the given vector
// geometry. segSize must be in [1, 64]: a segment mutation is one word.
func NewFoldPipeline(prefixBits, segSize, numSegs int) *FoldPipeline {
	if prefixBits < 0 || prefixBits > 64 {
		panic("history: fold pipeline prefix bits out of range")
	}
	if segSize < 1 || segSize > 64 {
		panic("history: fold pipeline segment size out of range [1,64]")
	}
	if numSegs < 0 {
		panic("history: fold pipeline segment count negative")
	}
	nw := (numSegs*segSize + 63) / 64
	if nw < 2 {
		nw = 2
	}
	return &FoldPipeline{
		prefixBits: prefixBits,
		segSize:    segSize,
		numSegs:    numSegs,
		words:      [2][]uint64{make([]uint64, nw), make([]uint64, nw)},
		pend:       [2][]uint64{make([]uint64, numSegs), make([]uint64, numSegs)},
		dirty:      make([]int32, 0, numSegs),
		inDirty:    make([]bool, numSegs),
	}
}

// AddRegister adds a channel-0 folded register over the first n vector
// bits, compressed to width w, and returns its id.
func (p *FoldPipeline) AddRegister(n, w int) int {
	return p.AddRegisterCh(0, n, w)
}

// AddRegisterCh adds a folded register on channel ch (0 or 1) over the
// first n bits of that channel's vector, compressed to width w, and
// returns its id. Ids are global across channels. The width must be in
// [1, 64].
func (p *FoldPipeline) AddRegisterCh(ch, n, w int) int {
	if ch < 0 || ch > 1 {
		panic("history: fold pipeline channel out of range [0,1]")
	}
	if w < 1 || w > 64 {
		panic("history: fold pipeline register width out of range")
	}
	if n < 1 || n > p.prefixBits+p.numSegs*p.segSize {
		panic("history: fold pipeline register length exceeds vector")
	}
	// A register joining a live pipeline must not absorb deltas that
	// predate it; settle them against the existing plans first.
	if len(p.dirty) != 0 {
		p.flush()
	}
	id := len(p.regs)
	pn := n
	if pn > p.prefixBits {
		pn = p.prefixBits
	}
	p.regs = append(p.regs, regInfo{
		prefixMask: lowMask(pn),
		wMask:      lowMask(w),
		n:          int32(n),
		w:          uint8(w),
		src:        uint8(ch),
	})
	p.vals = append(p.vals, p.regionFoldOf(ch, n, w))
	p.planDirty = true
	return id
}

// regionFoldOf derives a fresh register's region fold from the ground-
// truth words — nonzero only when registers join an already-mutated
// pipeline.
func (p *FoldPipeline) regionFoldOf(ch, n, w int) uint64 {
	wMask := lowMask(w)
	region := n - p.prefixBits
	var f uint64
	for j := 0; j*64 < region; j++ {
		bits := region - j*64
		if bits > 64 {
			bits = 64
		}
		g := foldSlow(p.words[ch][j]&lowMask(bits), wMask, uint(w))
		r := uint((p.prefixBits + 64*j) % w)
		f ^= (g<<r | g>>(uint(w)-r)) & wMask
	}
	return f
}

// build assembles the per-segment apply plans from the register set,
// grouping registers that share a (width, rotation, mask) recipe so the
// folded delta is computed once per group.
func (p *FoldPipeline) build() {
	type ent struct {
		mask uint64
		reg  int32
		w    uint8
		rot  uint8
	}
	p.segApp = [2][]applyPlan{make([]applyPlan, p.numSegs), make([]applyPlan, p.numSegs)}
	ents := make([]ent, 0, len(p.regs))
	for ch := 0; ch < 2; ch++ {
		for s := 0; s < p.numSegs; s++ {
			ents = ents[:0]
			for id := range p.regs {
				r := &p.regs[id]
				if int(r.src) != ch {
					continue
				}
				region := int(r.n) - p.prefixBits
				b := s * p.segSize
				if region <= b {
					continue
				}
				bits := region - b
				if bits > p.segSize {
					bits = p.segSize
				}
				ents = append(ents, ent{
					mask: lowMask(bits),
					reg:  int32(id),
					w:    r.w,
					rot:  uint8((p.prefixBits + b) % int(r.w)),
				})
			}
			if len(ents) == 0 {
				continue
			}
			sort.Slice(ents, func(i, j int) bool {
				a, b := &ents[i], &ents[j]
				if a.w != b.w {
					return a.w < b.w
				}
				if a.rot != b.rot {
					return a.rot < b.rot
				}
				return a.mask < b.mask
			})
			pl := &p.segApp[ch][s]
			for i := 0; i < len(ents); i++ {
				e := &ents[i]
				wMask := lowMask(int(e.w))
				if e.mask > wMask {
					p.segApp[ch][s].slow = append(p.segApp[ch][s].slow, slowEntry{
						mask: e.mask, wMask: wMask, reg: e.reg, w: e.w, rot: e.rot,
					})
					continue
				}
				ng := len(pl.groups)
				if ng > 0 && pl.groups[ng-1].mask == e.mask && pl.groups[ng-1].wMask == wMask &&
					pl.groups[ng-1].rotL == uint16(e.rot) {
					pl.members = append(pl.members, e.reg)
					pl.groups[ng-1].end = int32(len(pl.members))
					continue
				}
				pl.members = append(pl.members, e.reg)
				pl.groups = append(pl.groups, fGroup{
					mask:  e.mask,
					wMask: wMask,
					rotL:  uint16(e.rot),
					rotR:  uint16(e.w) - uint16(e.rot),
					end:   int32(len(pl.members)),
				})
			}
		}
	}
	p.planDirty = false
}

// NumRegisters returns the number of registers added so far.
func (p *FoldPipeline) NumRegisters() int { return len(p.regs) }

// Reset zeroes the maintained region words and register folds (the
// state when all segments are empty). Callers rebuilding from a
// snapshot Reset and then feed each segment's packed word through
// SegmentDelta2.
func (p *FoldPipeline) Reset() {
	for ch := range p.words {
		for i := range p.words[ch] {
			p.words[ch][i] = 0
		}
		for i := range p.pend[ch] {
			p.pend[ch][i] = 0
		}
	}
	for i := range p.vals {
		p.vals[i] = 0
	}
	for i := range p.inDirty {
		p.inDirty[i] = false
	}
	p.dirty = p.dirty[:0]
}

// SegmentDelta applies an XOR delta of segment s's channel-0 packed
// word (bit j = slot j). Feeding a word itself is equivalent to
// toggling it in (used for rebuilds).
func (p *FoldPipeline) SegmentDelta(s int, delta uint64) {
	p.SegmentDelta2(s, delta, 0)
}

// SegmentDelta2 applies XOR deltas of segment s's packed words on both
// channels in one dispatch. The region words update immediately; the
// per-register fold applications are queued and flushed at the next
// lookup, so a burst of deltas to one segment costs one application.
func (p *FoldPipeline) SegmentDelta2(s int, d0, d1 uint64) {
	off := uint(s * p.segSize)
	wi := off >> 6
	sh := off & 63
	p.words[0][wi] ^= d0 << sh
	p.words[1][wi] ^= d1 << sh
	if sh+uint(p.segSize) > 64 {
		p.words[0][wi+1] ^= d0 >> (64 - sh)
		p.words[1][wi+1] ^= d1 >> (64 - sh)
	}
	p.pend[0][s] ^= d0
	p.pend[1][s] ^= d1
	if !p.inDirty[s] {
		p.inDirty[s] = true
		p.dirty = append(p.dirty, int32(s))
	}
}

// flush applies the pending segment deltas to every covered register's
// running fold.
func (p *FoldPipeline) flush() {
	if p.planDirty {
		p.build()
	}
	vals := p.vals
	for _, s := range p.dirty {
		p.inDirty[s] = false
		for ch := 0; ch < 2; ch++ {
			d := p.pend[ch][s]
			if d == 0 {
				continue
			}
			p.pend[ch][s] = 0
			a := &p.segApp[ch][s]
			start := int32(0)
			for g := range a.groups {
				gr := &a.groups[g]
				v := d & gr.mask
				f := (v<<gr.rotL | v>>gr.rotR) & gr.wMask
				end := gr.end
				if f != 0 {
					for _, id := range a.members[start:end] {
						vals[id] ^= f
					}
				}
				start = end
			}
			for i := range a.slow {
				e := &a.slow[i]
				w := uint(e.w)
				f := foldSlow(d&e.mask, e.wMask, w)
				if r := uint(e.rot); r != 0 {
					f = (f<<r | f>>(w-r)) & e.wMask
				}
				vals[e.reg] ^= f
			}
		}
	}
	p.dirty = p.dirty[:0]
}

// foldSlow folds x down to w bits one width step at a time. Inputs
// already below 2^w (narrow deltas, short prefixes) cost a single
// compare.
func foldSlow(x, wMask uint64, w uint) uint64 {
	for x > wMask {
		x = x&wMask ^ x>>w
	}
	return x
}

// Fold returns register reg's current value given the live prefix word
// of the register's channel (bit i = vector bit i; bits at and beyond
// prefixBits are ignored). It equals FoldWords over the composite
// vector of the register's length and width.
func (p *FoldPipeline) Fold(reg int, prefix uint64) uint64 {
	if len(p.dirty) != 0 {
		p.flush()
	}
	pl := &p.regs[reg]
	return foldSlow(prefix&pl.prefixMask, pl.wMask, uint(pl.w)) ^ p.vals[reg]
}

// FoldAll writes every register's current value into out (indexed by
// register id), applying the same prefix word to both channels — the
// single-vector form of FoldAll2.
func (p *FoldPipeline) FoldAll(prefix uint64, out []uint64) {
	p.FoldAll2(prefix, prefix, out)
}

// FoldAll2 writes every register's current value into out (indexed by
// register id) given the live prefix words of the two channels — the
// bulk-lookup form of Fold for predictors that consume all registers
// per prediction. With the region folds maintained incrementally, each
// register costs one short prefix fold and one XOR.
func (p *FoldPipeline) FoldAll2(prefix0, prefix1 uint64, out []uint64) {
	if len(p.dirty) != 0 {
		p.flush()
	}
	vals := p.vals
	for id := range p.regs {
		pl := &p.regs[id]
		pv := prefix0
		if pl.src != 0 {
			pv = prefix1
		}
		out[id] = foldSlow(pv&pl.prefixMask, pl.wMask, uint(pl.w)) ^ vals[id]
	}
}
