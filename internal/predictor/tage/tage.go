package tage

import (
	"fmt"
	"math/bits"

	"bfbp/internal/inflight"
	"bfbp/internal/looppred"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

const (
	ctrMax = 3 // 3-bit signed prediction counter [-4, 3]
	ctrMin = -4
	scMax  = 31 // 6-bit signed statistical-corrector counter [-32, 31]
	scMin  = -32
	// uResetPeriod is the number of updates between useful-bit resets.
	uResetPeriod = 1 << 18
)

// History is the global history a TAGE engine indexes its tagged tables
// by: the one part in which a conventional TAGE and the paper's BF-TAGE
// differ. New builds the engine over the conventional history (folded
// registers over the raw outcome ring); bftage builds it over the
// bias-free global history register. The engine calls Folds once per
// lookup and Commit once per update.
type History interface {
	// Folds writes every tagged table's index fold, path bits included,
	// into idx and its tag fold into tag.
	Folds(idx, tag []uint64)
	// Commit records a resolved branch.
	Commit(pc uint64, taken bool)
	// Reach is the raw-branch depth a table indexed by histLen history
	// bits can observe.
	Reach(histLen int) int
	// BiasState is pc's bias classification, "" for a history that does
	// not filter.
	BiasState(pc uint64) string
	// Storage returns the history's storage lines, path history included.
	Storage() []sim.Component
	// Probe appends the history's own banks and recency stacks to ts.
	Probe(ts *sim.TableStats)
	// HashConfig folds the history's geometry into the config hash.
	HashConfig(h *state.Hash)
	// SaveState writes the history's sections.
	SaveState(s *state.Snapshot) error
	// LoadState decodes the history's sections, recording failures on
	// s. The predictor runs commit, which installs what it decoded, only
	// once s.Err returns nil.
	LoadState(s *state.Snapshot) (commit func())
}

// Org names a TAGE organisation.
type Org struct {
	// Kind seeds the snapshot config hash ("tage", "bftage").
	Kind string
	// Name is reported when Config.Name is empty.
	Name string
	// Unit is what the tables' history lengths count, as the storage
	// lines print it ("hist", "bf-hist").
	Unit string
}

// table is one tagged bank in structure-of-arrays layout: tags, counters,
// and useful bits live in parallel dense arrays instead of a fat entry
// struct, so the provider scan touches 2 bytes per probe, the useful-bit
// reset is a word-wise clear, and each array stays cache-line packed.
type table struct {
	cfg     TableConfig
	tags    []uint16
	ctrs    []int8
	useful  []uint64 // bitset, entry i at word i/64 bit i%64
	mask    uint64
	tagMask uint32

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

// checkpoint captures everything Predict computed so Update trains exactly
// that state (correct under delayed update). Its idx and tag arrays are
// built once per ring slot and overwritten by each lookup.
type checkpoint struct {
	pc          uint64
	idx         []uint32
	tag         []uint32
	provider    int // -1 = base
	alt         int // -1 = base
	newlyAlloc  bool
	basePred    bool
	baseIdx     uint32
	provPred    bool
	altPred     bool
	tagePred    bool // after alt-on-NA selection
	scSum       int32
	scIdx       uint32
	scApplied   bool
	loopPred    bool
	loopValid   bool
	loopApplied bool
	finalPred   bool
}

// Predictor is a TAGE / ISL-TAGE engine over a History.
type Predictor struct {
	cfg    Config
	org    Org
	hist   History
	tables []*table
	// fIdx and fTag are Folds scratch.
	fIdx, fTag []uint64

	// Base bimodal: 1 prediction bit per entry, 1 hysteresis bit shared
	// by 4 entries (Table I's 2560-byte T0 at 16K entries).
	basePred []bool
	baseHyst []bool
	baseMask uint64

	useAltOnNA int32 // 4-bit counter, >= 8 prefers alt on newly allocated
	tick       int
	r          *rng.SplitMix64

	loop     *looppred.Predictor
	withLoop int32 // 7-bit signed: trust the loop predictor when >= 0

	sc     []int8 // statistical corrector counters (6-bit semantics)
	scMask uint64

	// inflight holds the predictions awaiting their update, oldest
	// first; its free slot doubles as scratch for lookups that never go
	// in flight.
	inflight inflight.Ring[checkpoint]
}

// New returns a TAGE/ISL-TAGE predictor over the conventional global
// history.
func New(cfg Config) *Predictor {
	return NewWithHistory(cfg, Org{Kind: "tage", Name: "tage", Unit: "hist"}, newFolded)
}

// NewWithHistory returns a TAGE engine for cfg named by org, indexed by
// the history newHist builds for the validated cfg.
func NewWithHistory(cfg Config, org Org, newHist func(Config) History) *Predictor {
	if len(cfg.Tables) == 0 {
		panic("tage: need at least one tagged table")
	}
	if cfg.BaseLogEntries < 4 || cfg.BaseLogEntries > 24 {
		panic("tage: BaseLogEntries out of range")
	}
	if cfg.PathBits <= 0 {
		cfg.PathBits = 16
	}
	n := len(cfg.Tables)
	p := &Predictor{
		cfg:        cfg,
		org:        org,
		fIdx:       make([]uint64, n),
		fTag:       make([]uint64, n),
		basePred:   make([]bool, 1<<cfg.BaseLogEntries),
		baseHyst:   make([]bool, 1<<(cfg.BaseLogEntries-2)),
		baseMask:   uint64(1<<cfg.BaseLogEntries - 1),
		useAltOnNA: 8,
		r:          rng.New(cfg.Seed | 1),
	}
	prev := 0
	for _, tc := range cfg.Tables {
		if tc.HistLen <= prev {
			panic("tage: history lengths must be strictly increasing")
		}
		prev = tc.HistLen
		if tc.LogEntries < 4 || tc.LogEntries > 22 {
			panic("tage: LogEntries out of range")
		}
		// Tags are stored as uint16: a wider tag would be truncated on
		// allocation and its entry could never hit again.
		if tc.TagBits < 4 || tc.TagBits > 16 {
			panic("tage: TagBits out of range")
		}
		size := 1 << tc.LogEntries
		p.tables = append(p.tables, &table{
			cfg:     tc,
			tags:    make([]uint16, size),
			ctrs:    make([]int8, size),
			useful:  make([]uint64, (size+63)/64),
			mask:    uint64(size - 1),
			tagMask: uint32(1<<tc.TagBits - 1),
			alloc:   make([]uint64, (size+63)/64),
		})
	}
	p.hist = newHist(cfg)
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
	return p.org.Name
}

// lookup fills the ring's free slot, keeping its index/tag arrays, with
// pc's table keys and TAGE prediction, which it also takes as the final
// prediction. The slot is not put in flight.
func (p *Predictor) lookup(pc uint64) *checkpoint {
	cp := p.inflight.Next()
	*cp = checkpoint{pc: pc, idx: cp.idx, tag: cp.tag, provider: -1, alt: -1}
	p.hist.Folds(p.fIdx, p.fTag)
	pch := rng.Hash64(pc >> 2)
	for i, t := range p.tables {
		cp.idx[i] = uint32(rng.Hash64(pch^p.fIdx[i]^uint64(i)<<56) & t.mask)
		cp.tag[i] = (uint32(pch>>8) ^ uint32(p.fTag[i])) & t.tagMask
	}
	cp.baseIdx = uint32((pc >> 2) & p.baseMask)
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
		cp.newlyAlloc = !t.u(e) && isWeak(ctr)
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
	cp.finalPred = cp.tagePred
	return cp
}

// providerCtr is the counter of cp's provider entry.
func (p *Predictor) providerCtr(cp *checkpoint) int8 {
	return p.tables[cp.provider].ctrs[cp.idx[cp.provider]]
}

// scIndex hashes the PC with the provider confidence class, following the
// ISL statistical corrector's idea of learning, per (branch, confidence),
// whether TAGE's prediction is statistically wrong.
func (p *Predictor) scIndex(cp *checkpoint) uint32 {
	conf := uint64(9)
	if cp.provider >= 0 {
		conf = uint64(int64(p.providerCtr(cp)) + 4)
	}
	dir := uint64(0)
	if cp.tagePred {
		dir = 1
	}
	return uint32(rng.Hash64((cp.pc>>2)<<5^conf<<1^dir) & p.scMask)
}

// Predict implements sim.Predictor.
func (p *Predictor) Predict(pc uint64) bool {
	cp := p.lookup(pc)

	// Statistical corrector: invert statistically-wrong low-confidence
	// predictions.
	if p.sc != nil {
		cp.scIdx = p.scIndex(cp)
		cp.scSum = int32(p.sc[cp.scIdx])
		weak := cp.provider < 0 || cp.newlyAlloc || isWeak(p.providerCtr(cp))
		if weak && cp.scSum <= -8 {
			cp.finalPred = !cp.tagePred
			cp.scApplied = true
		}
	}

	// Immediate update mimicker: if an in-flight (predicted, not yet
	// updated) branch used the same provider entry, forward its direction
	// — mimicking the update that entry is about to receive.
	if p.cfg.IUM && cp.provider >= 0 {
		for j := p.inflight.Len() - 1; j >= 0; j-- {
			q := p.inflight.At(j)
			if q.provider == cp.provider && q.idx[q.provider] == cp.idx[cp.provider] {
				cp.finalPred = q.finalPred
				break
			}
		}
	}

	// Loop predictor has the last word when trusted.
	if p.loop != nil {
		lp, lv := p.loop.Predict(pc)
		cp.loopPred, cp.loopValid = lp, lv
		if lv && p.withLoop >= 0 {
			cp.finalPred = lp
			cp.loopApplied = true
		}
	}

	p.inflight.Push()
	return cp.finalPred
}

func isWeak(ctr int8) bool { return ctr == 0 || ctr == -1 }

// Update implements sim.Predictor. An update whose PC does not match the
// oldest checkpoint (a caller that skipped Predict) trains from a fresh
// lookup instead.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	if p.inflight.Len() > 0 && p.inflight.At(0).pc == pc {
		p.train(p.inflight.At(0), taken)
		p.inflight.Pop()
	} else {
		p.train(p.lookup(pc), taken)
	}
	p.hist.Commit(pc, taken)
}

func (p *Predictor) train(cp *checkpoint, taken bool) {
	// Loop predictor trains on every branch; allocation is gated by a
	// TAGE misprediction.
	if p.loop != nil {
		if cp.loopValid && cp.loopPred != cp.tagePred {
			p.withLoop = clamp32(p.withLoop+b2i(cp.loopPred == taken)*2-1, -64, 63)
		}
		p.loop.Update(cp.pc, taken, cp.tagePred != taken)
	}

	// Statistical corrector trains whenever it was consulted.
	if p.sc != nil {
		v := p.sc[cp.scIdx]
		if cp.tagePred == taken {
			if v < scMax {
				p.sc[cp.scIdx] = v + 1
			}
		} else if v > scMin {
			p.sc[cp.scIdx] = v - 1
		}
	}

	// use_alt_on_na bookkeeping.
	if cp.provider >= 0 && cp.newlyAlloc && cp.provPred != cp.altPred {
		p.useAltOnNA = clamp32(p.useAltOnNA+b2i(cp.altPred == taken)*2-1, 0, 15)
	}

	// Train the provider (or the base).
	if cp.provider >= 0 {
		t := p.tables[cp.provider]
		e := cp.idx[cp.provider]
		t.ctrs[e] = satCtr(t.ctrs[e], taken)
		if cp.provPred != cp.altPred {
			t.setU(e, cp.provPred == taken)
		}
		// When the provider entry is still weak, keep the base warm too,
		// so evictions fall back gracefully.
		if !t.u(e) && isWeak(t.ctrs[e]) {
			p.baseUpdate(cp.baseIdx, taken)
		}
	} else {
		p.baseUpdate(cp.baseIdx, taken)
	}

	// Allocate on a TAGE misprediction (the pre-SC/loop decision governs
	// allocation, as in ISL-TAGE).
	if cp.tagePred != taken && cp.provider < len(p.tables)-1 {
		p.allocate(cp, taken)
	}

	// Periodic graceful reset of useful bits: a word-wise clear.
	p.tick++
	if p.tick >= uResetPeriod {
		p.tick = 0
		for _, t := range p.tables {
			clear(t.useful)
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

// allocate installs a new entry in a table with longer history than the
// provider, randomly skipping candidates to spread allocations across
// lengths.
func (p *Predictor) allocate(cp *checkpoint, taken bool) {
	start := cp.provider + 1
	// Random start skip: with probability 1/2 move one table up, twice.
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
			t.ctrs[e] = int8(b2i(taken) - 1) // weak toward the outcome
			return
		}
	}
	// No free slot: age the candidates.
	for i := start; i < len(p.tables); i++ {
		p.tables[i].setU(cp.idx[i], false)
	}
}

func satCtr(c int8, taken bool) int8 {
	if taken {
		if c < ctrMax {
			return c + 1
		}
		return c
	}
	if c > ctrMin {
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

// Explain implements sim.Explainer: it reports the provenance of the
// newest in-flight prediction for pc (or of a fresh side-effect-free
// lookup when none is in flight) — provider/alt banks, the provider
// entry's counter and useful bit, which component had the last word,
// and the branch's bias classification when the history filters. The
// bias-free history only gates history insertion, so FilterDecision
// stays false.
func (p *Predictor) Explain(pc uint64) sim.Provenance {
	cp := p.inflight.Last(func(q *checkpoint) bool { return q.pc == pc })
	if cp == nil {
		cp = p.lookup(pc)
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
		BiasState:      p.hist.BiasState(pc),
	}
	if cp.provider >= 0 {
		prov.ProviderCtr = p.providerCtr(cp)
		prov.ProviderUseful = p.tables[cp.provider].u(cp.idx[cp.provider])
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

// Storage implements sim.StorageAccounter, following Table I's accounting.
func (p *Predictor) Storage() sim.Breakdown {
	b := sim.Breakdown{Name: p.Name()}
	b.Components = append(b.Components, sim.Component{
		Name: "base bimodal (pred+hyst)",
		Bits: len(p.basePred) + len(p.baseHyst),
	})
	for i, t := range p.tables {
		b.Components = append(b.Components, sim.Component{
			Name: fmt.Sprintf("tagged T%d (%s %d)", i+1, p.org.Unit, t.cfg.HistLen),
			Bits: len(t.tags) * (4 + t.cfg.TagBits), // 3-bit ctr + u + tag
		})
	}
	b.Components = append(b.Components, p.hist.Storage()...)
	if p.loop != nil {
		b.Components = append(b.Components, sim.Component{Name: "loop predictor", Bits: p.loop.StorageBits()})
	}
	if p.sc != nil {
		b.Components = append(b.Components, sim.Component{Name: "statistical corrector", Bits: 6 * len(p.sc)})
	}
	return b
}

// ProbeState implements sim.StateProbe: base-table warmth, per-bank
// occupancy/conflict/useful/saturation profiles with each bank's
// history length and raw-branch reach (so capacity-vs-reach reports can
// compare bias-free banks against conventional ones), the history's
// own state, and the statistical corrector's weight saturation. Live
// counts come from the allocate-path bitmap; everything else is scanned
// here, off the hot path.
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
			if c == ctrMax || c == ctrMin {
				sat++
			}
		}
		ts.Banks = append(ts.Banks, sim.BankStats{
			Bank:      i + 1,
			Kind:      "tagged",
			Entries:   len(t.tags),
			Live:      t.live,
			HistLen:   t.cfg.HistLen,
			Reach:     p.hist.Reach(t.cfg.HistLen),
			UsefulSet: useful,
			Saturated: sat,
			Allocs:    t.allocs,
			Evictions: t.evictions,
		})
	}
	p.hist.Probe(&ts)
	if p.sc != nil {
		ts.Weights = append(ts.Weights, sim.WeightArrayStats(0, "sc", 0, p.sc, scMin, scMax))
	}
	return ts
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.Explainer        = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
