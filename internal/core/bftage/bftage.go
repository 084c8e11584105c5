// Package bftage implements the Bias-Free TAGE predictor of the paper
// (§V): a TAGE organisation whose tagged tables are indexed not by the raw
// global history but by the bias-free global history register (BF-GHR) of
// Fig. 7 — the 16 most recent unfiltered outcome bits followed by the
// contents of segmented recency stacks that each hold only the most recent
// occurrence of non-biased branches from a geometric segment of the
// unfiltered history.
//
// Because the segments reach 2048 branches into the past while the BF-GHR
// is only ~144 bits wide, a 10-table BF-TAGE indexed with history lengths
// {3,8,14,26,40,54,70,94,118,142} can capture the correlations a
// conventional TAGE needs 15 tables and 1930 history bits for — the
// paper's headline BF-TAGE result (Figs. 10-12).
package bftage

import (
	"fmt"
	"math/bits"

	"bfbp/internal/bst"
	"bfbp/internal/core/inflight"
	"bfbp/internal/history"
	"bfbp/internal/looppred"
	"bfbp/internal/predictor/tage"
	"bfbp/internal/rng"
	"bfbp/internal/rs"
	"bfbp/internal/sim"
)

// Config parameterises BF-TAGE.
type Config struct {
	// Name overrides the reported predictor name.
	Name string
	// BaseLogEntries is log2 of the bimodal base size.
	BaseLogEntries int
	// Tables configures the tagged tables; HistLen is measured in BF-GHR
	// bits (compressed history), not raw branches.
	Tables []tage.TableConfig
	// UnfilteredBits is the number of recent unfiltered history bits kept
	// at the front of the BF-GHR (16 in §VI-C, to damp dynamic-detection
	// perturbations).
	UnfilteredBits int
	// SegBounds are the unfiltered-history depths delimiting the
	// recency-stack segments (§VI-C: {16, 32, 48, 64, 80, 104, 128, 192,
	// 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048}).
	SegBounds []int
	// SegSize is the per-segment stack capacity (8).
	SegSize int
	// BSTEntries is the Branch Status Table size (8192 in Table I).
	BSTEntries int
	// Classifier overrides the 2-bit FSM BST (e.g. bst.Oracle for the
	// §VI-D static profile-assisted variant).
	Classifier bst.Classifier
	// PathBits is the path-history width (16).
	PathBits int
	// LoopPredictor, StatisticalCorrector, IUM enable the ISL components
	// BF-ISL-TAGE inherits (§VI-C).
	LoopPredictor        bool
	StatisticalCorrector bool
	IUM                  bool
	// UResetPeriod is the useful-bit reset period (default 2^18).
	UResetPeriod int
	// Seed drives allocation randomisation.
	Seed uint64
}

// PaperSegBounds is the §VI-C history segmentation.
func PaperSegBounds() []int {
	return []int{16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048}
}

// Histories returns the BF-GHR history lengths for n tagged tables: the
// paper's set for n == 10, a geometric series from 3 to the BF-GHR width
// otherwise.
func Histories(n int) []int {
	if n == 10 {
		return []int{3, 8, 14, 26, 40, 54, 70, 94, 118, 142}
	}
	return history.GeometricRange(3, 142, n)
}

// Conventional returns a BF-ISL-TAGE with n tagged tables sized, like the
// paper, to the same storage as the corresponding conventional ISL-TAGE.
func Conventional(n int) Config {
	return conventional(n, true, true)
}

// ConventionalBare drops the SC and IUM components (paralleling
// tage.ConventionalBare).
func ConventionalBare(n int) Config {
	return conventional(n, false, false)
}

func conventional(n int, sc, ium bool) Config {
	// Tagged budget: the conventional target minus what the BF machinery
	// costs (BST 2KB + RS 284B + unfiltered history 3KB, Table I).
	const targetTaggedBits = (48*1024 - 2048 - 284 - 3072) * 8
	cfg := Config{
		Name:                 fmt.Sprintf("bf-isl-tage-%d", n),
		BaseLogEntries:       14,
		Tables:               tage.SizeTables(Histories(n), targetTaggedBits),
		UnfilteredBits:       16,
		SegBounds:            PaperSegBounds(),
		SegSize:              8,
		BSTEntries:           8192,
		PathBits:             16,
		LoopPredictor:        true,
		StatisticalCorrector: sc,
		IUM:                  ium,
		Seed:                 0xBF7A6E,
	}
	if !sc && !ium {
		cfg.Name = fmt.Sprintf("bf-tage-%d", n)
	}
	return cfg
}

// table is one tagged bank in structure-of-arrays layout: tags, counters,
// and useful bits live in parallel dense arrays instead of a fat entry
// struct, so the provider scan touches 2 bytes per probe, the useful-bit
// reset is a word-wise clear, and each array stays cache-line packed.
type table struct {
	cfg     tage.TableConfig
	tags    []uint16
	ctrs    []int8
	useful  []uint64 // bitset, entry i at word i/64 bit i%64
	mask    uint64
	tagMask uint32
	// Fold-pipeline register ids: index fold, tag folds, address-bit fold.
	rIdx, rT0, rT1, rPC int

	// Occupancy accounting for StateProbe, maintained on the rare
	// allocate path only: alloc marks indices that have ever been
	// installed, live counts them, and evictions counts installs that
	// displaced a previously allocated entry (tag conflicts). Pure
	// observation — never serialised, never read by prediction.
	alloc     []uint64
	live      int
	allocs    uint64
	evictions uint64
}

// u reads entry i's useful bit.
func (t *table) u(i uint32) bool { return t.useful[i>>6]>>(i&63)&1 != 0 }

// setU writes entry i's useful bit.
func (t *table) setU(i uint32, b bool) {
	m := uint64(1) << (i & 63)
	if b {
		t.useful[i>>6] |= m
	} else {
		t.useful[i>>6] &^= m
	}
}

type checkpoint struct {
	pc          uint64
	idx         []uint32
	tag         []uint32
	provider    int
	alt         int
	newlyAlloc  bool
	basePred    bool
	baseIdx     uint32
	provPred    bool
	altPred     bool
	tagePred    bool
	scSum       int32
	scIdx       uint32
	scApplied   bool
	loopPred    bool
	loopValid   bool
	loopApplied bool
	finalPred   bool
}

// Predictor is the BF-TAGE predictor.
type Predictor struct {
	cfg    Config
	tables []*table

	basePred []bool
	baseHyst []bool
	baseMask uint64

	class bst.Classifier
	seg   *rs.Segmented
	path  *history.Path

	useAltOnNA int32
	tick       int
	r          *rng.SplitMix64

	loop     *looppred.Predictor
	withLoop int32

	sc     []int8
	scMask uint64

	// inflight holds the predictions awaiting their update, oldest
	// first; its free slot doubles as scratch for lookups that never go
	// in flight.
	inflight     inflight.Ring[checkpoint]
	providerHits []uint64

	// pipe is the dual-channel fold pipeline over the BF-GHR's outcome
	// bits (channel 0) and address bits (channel 1): one register per
	// table per fold the index/tag hash needs, updated by XOR deltas as
	// the recency-stack segments mutate instead of re-derived from the
	// GHR per lookup.
	pipe *history.FoldPipeline
	// folds is FoldAll2 scratch, indexed by (global) register id.
	folds []uint64
}

// New returns a BF-TAGE predictor for cfg.
func New(cfg Config) *Predictor {
	if len(cfg.Tables) == 0 {
		panic("bftage: need at least one tagged table")
	}
	if cfg.BaseLogEntries < 4 || cfg.BaseLogEntries > 24 {
		panic("bftage: BaseLogEntries out of range")
	}
	if cfg.UnfilteredBits < 0 || cfg.UnfilteredBits > 64 {
		panic("bftage: UnfilteredBits out of range")
	}
	if cfg.SegSize < 1 {
		panic("bftage: SegSize must be >= 1")
	}
	if cfg.BSTEntries <= 0 || cfg.BSTEntries&(cfg.BSTEntries-1) != 0 {
		panic("bftage: BSTEntries must be a positive power of two")
	}
	if cfg.PathBits <= 0 {
		cfg.PathBits = 16
	}
	if cfg.UResetPeriod == 0 {
		cfg.UResetPeriod = 1 << 18
	}
	p := &Predictor{
		cfg:          cfg,
		basePred:     make([]bool, 1<<cfg.BaseLogEntries),
		baseHyst:     make([]bool, 1<<(cfg.BaseLogEntries-2)),
		baseMask:     uint64(1<<cfg.BaseLogEntries - 1),
		seg:          rs.NewSegmented(cfg.SegBounds, cfg.SegSize),
		path:         history.NewPath(cfg.PathBits),
		useAltOnNA:   8,
		r:            rng.New(cfg.Seed | 1),
		providerHits: make([]uint64, len(cfg.Tables)+1),
	}
	if cfg.Classifier != nil {
		p.class = cfg.Classifier
	} else {
		p.class = bst.NewTable(cfg.BSTEntries)
	}
	ghrBits := cfg.UnfilteredBits + p.seg.Bits()
	p.pipe = history.NewFoldPipeline(cfg.UnfilteredBits, cfg.SegSize, p.seg.Segments())
	prev := 0
	for _, tc := range cfg.Tables {
		if tc.HistLen <= prev {
			panic("bftage: history lengths must be strictly increasing")
		}
		prev = tc.HistLen
		if tc.HistLen > ghrBits {
			panic("bftage: history length exceeds BF-GHR width")
		}
		if tc.LogEntries < 4 || tc.LogEntries > 22 {
			panic("bftage: LogEntries out of range")
		}
		// Tags are stored as uint16: a wider tag would be truncated on
		// allocation and its entry could never hit again.
		if tc.TagBits < 4 || tc.TagBits > 16 {
			panic("bftage: TagBits out of range")
		}
		n := 1 << tc.LogEntries
		t := &table{
			cfg:     tc,
			tags:    make([]uint16, n),
			ctrs:    make([]int8, n),
			useful:  make([]uint64, (n+63)/64),
			mask:    uint64(1<<tc.LogEntries - 1),
			tagMask: uint32(1<<tc.TagBits - 1),
			alloc:   make([]uint64, (n+63)/64),
		}
		t.rIdx = p.pipe.AddRegisterCh(0, tc.HistLen, tc.LogEntries)
		t.rT0 = p.pipe.AddRegisterCh(0, tc.HistLen, tc.TagBits)
		t.rT1 = p.pipe.AddRegisterCh(0, tc.HistLen, tc.TagBits-1)
		t.rPC = p.pipe.AddRegisterCh(1, tc.HistLen, tc.LogEntries-1)
		p.tables = append(p.tables, t)
	}
	p.seg.SetPackObserver(func(seg int, dT, dP uint64) {
		p.pipe.SegmentDelta2(seg, dT, dP)
	})
	p.folds = make([]uint64, p.pipe.NumRegisters())
	n := len(p.tables)
	p.inflight = inflight.New(func() checkpoint {
		return checkpoint{idx: make([]uint32, n), tag: make([]uint32, n)}
	})
	if cfg.LoopPredictor {
		p.loop = looppred.NewDefault()
	}
	if cfg.StatisticalCorrector {
		p.sc = make([]int8, 1<<12)
		p.scMask = uint64(len(p.sc) - 1)
	}
	return p
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string {
	if p.cfg.Name != "" {
		return p.cfg.Name
	}
	return "bf-tage"
}

// NumTables returns the tagged table count.
func (p *Predictor) NumTables() int { return len(p.tables) }

// GHRBits returns the BF-GHR width in bits.
func (p *Predictor) GHRBits() int { return p.cfg.UnfilteredBits + p.seg.Bits() }

// BankReach returns, per tagged table, the raw-branch depth the table's
// compressed history can observe. A table consuming L BF-GHR bits sees
// the UnfilteredBits most recent branches directly; every further bit
// is a recency-stack slot, and a slot in segment i can hold a branch as
// deep as SegBounds[i+1]. Conventional tables reach exactly HistLen raw
// branches, so equal-length BF tables reach much deeper — the paper's
// equal-storage structural advantage.
func (p *Predictor) BankReach() []int {
	out := make([]int, len(p.tables))
	for i, t := range p.tables {
		out[i] = p.reach(t.cfg.HistLen)
	}
	return out
}

func (p *Predictor) reach(histLen int) int {
	if histLen <= p.cfg.UnfilteredBits {
		return histLen
	}
	seg := (histLen - p.cfg.UnfilteredBits + p.cfg.SegSize - 1) / p.cfg.SegSize
	if seg >= len(p.cfg.SegBounds) {
		seg = len(p.cfg.SegBounds) - 1
	}
	return p.cfg.SegBounds[seg]
}

// fillKeys computes every table's index and tag from the fold pipelines:
// each fold is a register tail XORed with the cheap fold of the ring's
// packed unfiltered prefix — no BF-GHR rebuild, no FoldWords walk.
func (p *Predictor) fillKeys(pc uint64, idx, tag []uint32) {
	ring := p.seg.Ring()
	uT := ring.RecentTaken(p.cfg.UnfilteredBits)
	uP := ring.RecentPC(p.cfg.UnfilteredBits)
	p.pipe.FoldAll2(uT, uP, p.folds)
	pch := rng.Hash64(pc >> 2)
	path := p.path.Value()
	for i, t := range p.tables {
		key := pch ^ p.folds[t.rIdx] ^ p.folds[t.rPC]<<1 ^ path<<20 ^ uint64(i)<<56
		idx[i] = uint32(rng.Hash64(key) & t.mask)
		tag[i] = (uint32(pch>>8) ^ uint32(p.folds[t.rT0]) ^ uint32(p.folds[t.rT1])<<1) & t.tagMask
	}
}

// finishLookup reads the base bimodal, scans the tagged tables for
// provider and alternate, and derives the TAGE prediction.
func (p *Predictor) finishLookup(cp *checkpoint) {
	cp.baseIdx = uint32((cp.pc >> 2) & p.baseMask)
	cp.basePred = p.basePred[cp.baseIdx]
	for i := len(p.tables) - 1; i >= 0; i-- {
		if uint32(p.tables[i].tags[cp.idx[i]]) == cp.tag[i] {
			if cp.provider < 0 {
				cp.provider = i
			} else {
				cp.alt = i
				break
			}
		}
	}
	if cp.provider >= 0 {
		t := p.tables[cp.provider]
		e := cp.idx[cp.provider]
		ctr := t.ctrs[e]
		cp.provPred = ctr >= 0
		cp.newlyAlloc = !t.u(e) && (ctr == 0 || ctr == -1)
		if cp.alt >= 0 {
			cp.altPred = p.tables[cp.alt].ctrs[cp.idx[cp.alt]] >= 0
		} else {
			cp.altPred = cp.basePred
		}
		if cp.newlyAlloc && p.useAltOnNA >= 8 {
			cp.tagePred = cp.altPred
		} else {
			cp.tagePred = cp.provPred
		}
	} else {
		cp.altPred = cp.basePred
		cp.tagePred = cp.basePred
	}
}

// lookup fills the ring's free slot, keeping its index/tag arrays, with
// pc's table keys and TAGE prediction. The slot is not put in flight.
func (p *Predictor) lookup(pc uint64) *checkpoint {
	cp := p.inflight.Next()
	*cp = checkpoint{pc: pc, idx: cp.idx, tag: cp.tag, provider: -1, alt: -1}
	p.fillKeys(pc, cp.idx, cp.tag)
	p.finishLookup(cp)
	return cp
}

func (p *Predictor) scIndex(cp *checkpoint) uint32 {
	conf := uint64(9)
	if cp.provider >= 0 {
		conf = uint64(int64(p.tables[cp.provider].ctrs[cp.idx[cp.provider]]) + 4)
	}
	dir := uint64(0)
	if cp.tagePred {
		dir = 1
	}
	return uint32(rng.Hash64((cp.pc>>2)<<5^conf<<1^dir) & p.scMask)
}

// decide derives the final prediction from the TAGE outcome and the ISL
// components (SC weak-override, IUM in-flight forwarding, loop override)
// and records provider attribution.
func (p *Predictor) decide(cp *checkpoint) {
	cp.finalPred = cp.tagePred

	if p.sc != nil {
		cp.scIdx = p.scIndex(cp)
		cp.scSum = int32(p.sc[cp.scIdx])
		weak := cp.provider < 0 || cp.newlyAlloc ||
			isWeak(p.tables[cp.provider].ctrs[cp.idx[cp.provider]])
		if weak && cp.scSum <= -8 {
			cp.finalPred = !cp.tagePred
			cp.scApplied = true
		}
	}

	if p.cfg.IUM && cp.provider >= 0 {
		for j := p.inflight.Len() - 1; j >= 0; j-- {
			q := p.inflight.At(j)
			if q.provider == cp.provider && q.idx[q.provider] == cp.idx[cp.provider] {
				cp.finalPred = q.finalPred
				break
			}
		}
	}

	if p.loop != nil {
		lp, lv := p.loop.Predict(cp.pc)
		cp.loopPred, cp.loopValid = lp, lv
		if lv && p.withLoop >= 0 {
			cp.finalPred = lp
			cp.loopApplied = true
		}
	}

	if cp.provider >= 0 {
		p.providerHits[cp.provider+1]++
	} else {
		p.providerHits[0]++
	}
}

// Predict implements sim.Predictor.
func (p *Predictor) Predict(pc uint64) bool {
	cp := p.lookup(pc)
	p.decide(cp)
	p.inflight.Push()
	return cp.finalPred
}

func isWeak(ctr int8) bool { return ctr == 0 || ctr == -1 }

// Update implements sim.Predictor (§V-B4).
// An update whose PC does not match the oldest checkpoint (a caller
// that skipped Predict) trains from a fresh lookup instead.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	if p.inflight.Len() > 0 && p.inflight.At(0).pc == pc {
		p.train(p.inflight.At(0), taken)
		p.inflight.Pop()
	} else {
		p.train(p.lookup(pc), taken)
	}
	p.retire(pc, taken)
}

// retire performs the per-branch history management (§V-B4): classify,
// then commit into the unfiltered ring and the segmented stacks with the
// branch's bias status and hashed address (the stacks pick it up at
// segment boundaries), and push the path register.
func (p *Predictor) retire(pc uint64, taken bool) {
	p.class.Update(pc, taken)
	nonBiased := p.class.Lookup(pc) == bst.NonBiased
	p.seg.Commit(history.Entry{
		HashedPC:  uint32(rng.Hash64(pc>>2) & 0x3FFF),
		Taken:     taken,
		NonBiased: nonBiased,
	})
	p.path.Push(pc)
}

func (p *Predictor) train(cp *checkpoint, taken bool) {
	if p.loop != nil {
		if cp.loopValid && cp.loopPred != cp.tagePred {
			p.withLoop = clamp32(p.withLoop+b2i(cp.loopPred == taken)*2-1, -64, 63)
		}
		p.loop.Update(cp.pc, taken, cp.tagePred != taken)
	}

	if p.sc != nil {
		v := p.sc[cp.scIdx]
		if cp.tagePred == taken {
			if v < 31 {
				p.sc[cp.scIdx] = v + 1
			}
		} else if v > -32 {
			p.sc[cp.scIdx] = v - 1
		}
	}

	if cp.provider >= 0 && cp.newlyAlloc && cp.provPred != cp.altPred {
		p.useAltOnNA = clamp32(p.useAltOnNA+b2i(cp.altPred == taken)*2-1, 0, 15)
	}

	if cp.provider >= 0 {
		t := p.tables[cp.provider]
		e := cp.idx[cp.provider]
		t.ctrs[e] = satCtr(t.ctrs[e], taken)
		if cp.provPred != cp.altPred {
			t.setU(e, cp.provPred == taken)
		}
		if !t.u(e) && isWeak(t.ctrs[e]) {
			p.baseUpdate(cp.baseIdx, taken)
		}
	} else {
		p.baseUpdate(cp.baseIdx, taken)
	}

	if cp.tagePred != taken && cp.provider < len(p.tables)-1 {
		p.allocate(cp, taken)
	}

	p.tick++
	if p.tick >= p.cfg.UResetPeriod {
		p.tick = 0
		for _, t := range p.tables {
			// SoA payoff: the periodic useful reset is a word-wise clear.
			for i := range t.useful {
				t.useful[i] = 0
			}
		}
	}
}

func (p *Predictor) baseUpdate(idx uint32, taken bool) {
	hi := idx >> 2
	if p.basePred[idx] == taken {
		p.baseHyst[hi] = true
		return
	}
	if p.baseHyst[hi] {
		p.baseHyst[hi] = false
		return
	}
	p.basePred[idx] = taken
}

func (p *Predictor) allocate(cp *checkpoint, taken bool) {
	start := cp.provider + 1
	for s := 0; s < 2 && start < len(p.tables)-1; s++ {
		if p.r.Bool(0.5) {
			start++
		}
	}
	for i := start; i < len(p.tables); i++ {
		t := p.tables[i]
		e := cp.idx[i]
		if !t.u(e) {
			w, b := e>>6, uint64(1)<<(e&63)
			if t.alloc[w]&b == 0 {
				t.alloc[w] |= b
				t.live++
			} else {
				t.evictions++
			}
			t.allocs++
			t.tags[e] = uint16(cp.tag[i])
			t.ctrs[e] = int8(b2i(taken) - 1)
			t.setU(e, false)
			return
		}
	}
	for i := start; i < len(p.tables); i++ {
		p.tables[i].setU(cp.idx[i], false)
	}
}

func satCtr(c int8, taken bool) int8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > -4 {
		return c - 1
	}
	return c
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func clamp32(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// TableHits implements sim.TableHitReporter.
func (p *Predictor) TableHits() []uint64 {
	return append([]uint64(nil), p.providerHits...)
}

// ResetTableHits clears the provider histogram.
func (p *Predictor) ResetTableHits() {
	for i := range p.providerHits {
		p.providerHits[i] = 0
	}
}

// Classifier exposes the BST.
func (p *Predictor) Classifier() bst.Classifier { return p.class }

// Explain implements sim.Explainer: TAGE provenance (provider/alt bank,
// counter, useful bit) plus the branch's BST classification, so
// attribution reports can relate bank utilisation to bias filtering.
// BF-TAGE never predicts *from* the filter — the BST only gates history
// insertion — so FilterDecision stays false.
func (p *Predictor) Explain(pc uint64) sim.Provenance {
	cp := p.inflight.Last(func(q *checkpoint) bool { return q.pc == pc })
	if cp == nil {
		cp = p.lookup(pc)
		cp.finalPred = cp.tagePred
	}
	prov := sim.Provenance{
		Predictor:      p.Name(),
		Prediction:     cp.finalPred,
		Banks:          len(p.tables),
		Provider:       cp.provider,
		Alt:            cp.alt,
		ProviderPred:   cp.provPred,
		AltPred:        cp.altPred,
		NewlyAllocated: cp.newlyAlloc,
		BiasState:      p.class.Lookup(pc).String(),
	}
	if cp.provider >= 0 {
		t := p.tables[cp.provider]
		e := cp.idx[cp.provider]
		prov.ProviderCtr = t.ctrs[e]
		prov.ProviderUseful = t.u(e)
	}
	switch {
	case cp.loopApplied:
		prov.Component = "loop"
		// The loop predictor only overrides at full confidence.
		prov.Confidence = 7
	case cp.scApplied:
		prov.Component = "sc"
		prov.Confidence = abs32(2*cp.scSum + 1)
	case cp.provider >= 0:
		prov.Component = "tagged"
		prov.Confidence = abs32(2*int32(prov.ProviderCtr) + 1)
	default:
		prov.Component = "base"
		prov.Confidence = 1
	}
	return prov
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// Storage implements sim.StorageAccounter, mirroring the paper's Table I.
func (p *Predictor) Storage() sim.Breakdown {
	b := sim.Breakdown{Name: p.Name()}
	b.Components = append(b.Components, sim.Component{
		Name: "base bimodal (pred+hyst)",
		Bits: len(p.basePred) + len(p.baseHyst),
	})
	for i, t := range p.tables {
		b.Components = append(b.Components, sim.Component{
			Name: fmt.Sprintf("tagged T%d (bf-hist %d)", i+1, t.cfg.HistLen),
			Bits: len(t.tags) * (4 + t.cfg.TagBits),
		})
	}
	b.Components = append(b.Components,
		sim.Component{Name: "BST", Bits: p.class.StorageBits()},
		sim.Component{Name: "segmented RS", Bits: p.seg.StorageBits()},
		// Table I: 1536-deep unfiltered history entries of 14-bit hashed
		// PC + outcome + bias status (we model 2048 for the last segment).
		sim.Component{Name: "unfiltered history", Bits: 2048 * (14 + 1 + 1)},
		sim.Component{Name: "path history", Bits: p.cfg.PathBits},
	)
	if p.loop != nil {
		b.Components = append(b.Components, sim.Component{Name: "loop predictor", Bits: p.loop.StorageBits()})
	}
	if p.sc != nil {
		b.Components = append(b.Components, sim.Component{Name: "statistical corrector", Bits: 6 * len(p.sc)})
	}
	return b
}

// ProbeState implements sim.StateProbe: base-table warmth, per-bank
// occupancy/conflict profiles with both the BF-GHR history length and
// the raw-branch reach (so capacity-vs-reach reports can compare BF
// banks against conventional ones), useful-bit and counter saturation,
// the BST's classification census, the segmented recency stacks' fill,
// and the statistical corrector's weight saturation. Live counts come
// from the allocate-path bitmap; everything else is scanned here, off
// the hot path.
func (p *Predictor) ProbeState() sim.TableStats {
	ts := sim.TableStats{Predictor: p.Name()}
	baseLive := 0
	for i, pred := range p.basePred {
		if pred || p.baseHyst[i>>2] {
			baseLive++
		}
	}
	ts.Banks = append(ts.Banks, sim.BankStats{
		Bank: 0, Kind: "base", Entries: len(p.basePred), Live: baseLive,
	})
	for i, t := range p.tables {
		useful := 0
		for _, w := range t.useful {
			useful += bits.OnesCount64(w)
		}
		sat := 0
		for _, c := range t.ctrs {
			if c == 3 || c == -4 {
				sat++
			}
		}
		ts.Banks = append(ts.Banks, sim.BankStats{
			Bank:      i + 1,
			Kind:      "tagged",
			Entries:   len(t.tags),
			Live:      t.live,
			HistLen:   t.cfg.HistLen,
			Reach:     p.reach(t.cfg.HistLen),
			UsefulSet: useful,
			Saturated: sat,
			Allocs:    t.allocs,
			Evictions: t.evictions,
		})
	}
	if tbl, ok := p.class.(*bst.Table); ok {
		counts := tbl.StateCounts()
		ts.Banks = append(ts.Banks, sim.BankStats{
			Bank:      len(p.tables) + 1,
			Kind:      "bst",
			Entries:   tbl.Entries(),
			Live:      tbl.Entries() - counts[bst.NotFound],
			UsefulSet: counts[bst.NonBiased],
		})
	}
	for i := 0; i < p.seg.Segments(); i++ {
		ts.Recency = append(ts.Recency, sim.RecencyStats{
			Segment: i,
			Size:    p.seg.SegSize(),
			Live:    p.seg.SegmentLen(i),
			Depth:   p.cfg.SegBounds[i+1],
		})
	}
	if p.sc != nil {
		ts.Weights = append(ts.Weights, sim.WeightArrayStats(0, "sc", 0, p.sc, -32, 31))
	}
	return ts
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.TableHitReporter = (*Predictor)(nil)
	_ sim.Explainer        = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
