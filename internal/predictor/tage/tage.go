package tage

import (
	"bfbp/internal/history"
	"bfbp/internal/inflight"
	"bfbp/internal/looppred"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
)

const (
	ctrMax = 3 // 3-bit signed prediction counter [-4, 3]
	ctrMin = -4
)

type entry struct {
	tag uint16
	ctr int8
	u   bool
}

// table is one tagged component with its incremental folded histories.
type table struct {
	cfg      TableConfig
	entries  []entry
	mask     uint64
	tagMask  uint32
	foldIdx  *history.Folded
	foldTag0 *history.Folded
	foldTag1 *history.Folded

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

// checkpoint captures everything Predict computed so Update trains exactly
// that state (correct under delayed update). Its idx and tag arrays are
// built once per ring slot and overwritten by each lookup.
type checkpoint struct {
	pc          uint64
	idx         []uint32
	tag         []uint32
	provider    int // -1 = base
	alt         int // -1 = base
	providerOK  bool
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

// Predictor is a TAGE / ISL-TAGE predictor.
type Predictor struct {
	cfg    Config
	tables []*table

	// Base bimodal: 1 prediction bit per entry, 1 hysteresis bit shared
	// by 4 entries (Table I's 2560-byte T0 at 16K entries).
	basePred []bool
	baseHyst []bool
	baseMask uint64

	ring *history.Ring
	path *history.Path

	useAltOnNA int32 // 4-bit counter, >= 8 prefers alt on newly allocated
	tick       int
	resetAt    int
	r          *rng.SplitMix64

	loop     *looppred.Predictor
	withLoop int32 // 7-bit signed: trust the loop predictor when >= 0

	sc     []int8 // statistical corrector counters (6-bit semantics)
	scMask uint64

	// inflight holds the predictions awaiting their update, oldest
	// first; its free slot doubles as scratch for lookups that never go
	// in flight.
	inflight     inflight.Ring[checkpoint]
	providerHits []uint64
}

// New returns a predictor for the given configuration.
func New(cfg Config) *Predictor {
	if len(cfg.Tables) == 0 {
		panic("tage: need at least one tagged table")
	}
	if cfg.BaseLogEntries < 4 || cfg.BaseLogEntries > 24 {
		panic("tage: BaseLogEntries out of range")
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
		path:         history.NewPath(cfg.PathBits),
		useAltOnNA:   8,
		resetAt:      cfg.UResetPeriod,
		r:            rng.New(cfg.Seed | 1),
		providerHits: make([]uint64, len(cfg.Tables)+1),
	}
	maxHist := 0
	prev := 0
	for _, tc := range cfg.Tables {
		if tc.HistLen <= prev {
			panic("tage: history lengths must be strictly increasing")
		}
		prev = tc.HistLen
		if tc.HistLen > maxHist {
			maxHist = tc.HistLen
		}
		if tc.LogEntries < 4 || tc.LogEntries > 22 {
			panic("tage: LogEntries out of range")
		}
		if tc.TagBits < 4 || tc.TagBits > 16 {
			panic("tage: TagBits out of range")
		}
		t := &table{
			cfg:      tc,
			entries:  make([]entry, 1<<tc.LogEntries),
			mask:     uint64(1<<tc.LogEntries - 1),
			tagMask:  uint32(1<<tc.TagBits - 1),
			foldIdx:  history.NewFolded(tc.HistLen, tc.LogEntries),
			foldTag0: history.NewFolded(tc.HistLen, tc.TagBits),
			foldTag1: history.NewFolded(tc.HistLen, maxInt(tc.TagBits-1, 1)),
			alloc:    make([]uint64, (1<<tc.LogEntries+63)/64),
		}
		p.tables = append(p.tables, t)
	}
	ringCap := 1
	for ringCap < maxHist+2 {
		ringCap <<= 1
	}
	p.ring = history.NewRing(ringCap)
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
	return "tage"
}

// NumTables returns the tagged table count.
func (p *Predictor) NumTables() int { return len(p.tables) }

func (p *Predictor) baseIndex(pc uint64) uint32 { return uint32((pc >> 2) & p.baseMask) }

func (p *Predictor) basePredict(idx uint32) bool { return p.basePred[idx] }

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

// indices computes the per-table index and tag for pc.
func (p *Predictor) indices(pc uint64, idx, tag []uint32) {
	pch := rng.Hash64(pc >> 2)
	path := p.path.Value()
	for i, t := range p.tables {
		key := pch ^ t.foldIdx.Value() ^ (path&((1<<uint(minInt(t.cfg.HistLen, p.cfg.PathBits)))-1))<<20 ^ uint64(i)<<56
		idx[i] = uint32(rng.Hash64(key) & t.mask)
		tg := uint32(pch>>8) ^ uint32(t.foldTag0.Value()) ^ uint32(t.foldTag1.Value())<<1
		tag[i] = tg & t.tagMask
	}
}

// lookup fills the ring's free slot, keeping its index/tag arrays, with
// pc's table keys and TAGE prediction, which it also takes as the final
// prediction. The slot is not put in flight.
func (p *Predictor) lookup(pc uint64) *checkpoint {
	cp := p.inflight.Next()
	*cp = checkpoint{pc: pc, idx: cp.idx, tag: cp.tag, provider: -1, alt: -1}
	p.indices(pc, cp.idx, cp.tag)
	cp.baseIdx = p.baseIndex(pc)
	cp.basePred = p.basePredict(cp.baseIdx)
	for i := len(p.tables) - 1; i >= 0; i-- {
		e := &p.tables[i].entries[cp.idx[i]]
		if uint32(e.tag) == cp.tag[i] {
			if cp.provider < 0 {
				cp.provider = i
			} else {
				cp.alt = i
				break
			}
		}
	}
	if cp.provider >= 0 {
		e := &p.tables[cp.provider].entries[cp.idx[cp.provider]]
		cp.provPred = e.ctr >= 0
		cp.newlyAlloc = !e.u && (e.ctr == 0 || e.ctr == -1)
		if cp.alt >= 0 {
			ae := &p.tables[cp.alt].entries[cp.idx[cp.alt]]
			cp.altPred = ae.ctr >= 0
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

// scIndex hashes the PC with the provider confidence class, following the
// ISL statistical corrector's idea of learning, per (branch, confidence),
// whether TAGE's prediction is statistically wrong.
func (p *Predictor) scIndex(cp *checkpoint) uint32 {
	conf := uint64(0)
	if cp.provider >= 0 {
		e := &p.tables[cp.provider].entries[cp.idx[cp.provider]]
		conf = uint64(int64(e.ctr) + 4)
	} else {
		conf = 9
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
		weakProvider := cp.provider < 0 || cp.newlyAlloc || isWeak(p.tables[cp.provider].entries[cp.idx[cp.provider]].ctr)
		if weakProvider && cp.scSum <= -8 {
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

	if cp.provider >= 0 {
		p.providerHits[cp.provider+1]++
	} else {
		p.providerHits[0]++
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
	p.pushHistory(pc, taken)
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
			if v < 31 {
				p.sc[cp.scIdx] = v + 1
			}
		} else if v > -32 {
			p.sc[cp.scIdx] = v - 1
		}
	}

	// use_alt_on_na bookkeeping.
	if cp.provider >= 0 && cp.newlyAlloc && cp.provPred != cp.altPred {
		p.useAltOnNA = clamp32(p.useAltOnNA+b2i(cp.altPred == taken)*2-1, 0, 15)
	}

	// Train the provider (or the base).
	if cp.provider >= 0 {
		e := &p.tables[cp.provider].entries[cp.idx[cp.provider]]
		e.ctr = satCtr(e.ctr, taken)
		if cp.provPred != cp.altPred {
			e.u = cp.provPred == taken
		}
		// When the provider entry is still weak, keep the base warm too,
		// so evictions fall back gracefully.
		if !e.u && isWeak(e.ctr) {
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

	// Periodic graceful reset of useful bits.
	p.tick++
	if p.tick >= p.resetAt {
		p.tick = 0
		for _, t := range p.tables {
			for i := range t.entries {
				t.entries[i].u = false
			}
		}
	}
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
		e := &t.entries[cp.idx[i]]
		if !e.u {
			w, b := cp.idx[i]>>6, uint64(1)<<(cp.idx[i]&63)
			if t.alloc[w]&b == 0 {
				t.alloc[w] |= b
				t.live++
			} else {
				t.evictions++
			}
			t.allocs++
			e.tag = uint16(cp.tag[i])
			e.ctr = int8(b2i(taken) - 1) // weak toward the outcome
			e.u = false
			return
		}
	}
	// No free slot: age the candidates.
	for i := start; i < len(p.tables); i++ {
		p.tables[i].entries[cp.idx[i]].u = false
	}
}

func (p *Predictor) pushHistory(pc uint64, taken bool) {
	for _, t := range p.tables {
		old := p.ring.TakenAt(t.cfg.HistLen)
		t.foldIdx.Update(taken, old)
		t.foldTag0.Update(taken, old)
		t.foldTag1.Update(taken, old)
	}
	p.ring.Push(history.Entry{HashedPC: uint32(rng.Hash64(pc >> 2)), Taken: taken})
	p.path.Push(pc)
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

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Explain implements sim.Explainer: it reports the provenance of the
// newest in-flight prediction for pc (or of a fresh side-effect-free
// lookup when none is in flight) — provider/alt banks, the provider
// entry's counter and useful bit, and which component had the last word.
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
	}
	if cp.provider >= 0 {
		e := &p.tables[cp.provider].entries[cp.idx[cp.provider]]
		prov.ProviderCtr = e.ctr
		prov.ProviderUseful = e.u
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
	baseBits := len(p.basePred) + len(p.baseHyst)
	b.Components = append(b.Components, sim.Component{Name: "base bimodal (pred+hyst)", Bits: baseBits})
	for i, t := range p.tables {
		bits := len(t.entries) * (4 + t.cfg.TagBits) // 3-bit ctr + u + tag
		b.Components = append(b.Components, sim.Component{
			Name: "tagged T" + itoa(i+1) + " (hist " + itoa(t.cfg.HistLen) + ")",
			Bits: bits,
		})
	}
	b.Components = append(b.Components, sim.Component{Name: "global history ring", Bits: p.ring.Cap()})
	b.Components = append(b.Components, sim.Component{Name: "path history", Bits: p.cfg.PathBits})
	if p.loop != nil {
		b.Components = append(b.Components, sim.Component{Name: "loop predictor", Bits: p.loop.StorageBits()})
	}
	if p.sc != nil {
		b.Components = append(b.Components, sim.Component{Name: "statistical corrector", Bits: 6 * len(p.sc)})
	}
	return b
}

// ProbeState implements sim.StateProbe: base-table warmth, per-bank
// occupancy/conflict/useful/saturation profiles (live counts come from
// the allocate-path bitmap; useful and saturation are scanned here, off
// the hot path), each bank's raw-branch reach (its history length) and
// provider hits, and the statistical corrector's weight saturation.
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
		Hits: p.providerHits[0],
	})
	for i, t := range p.tables {
		useful, sat := 0, 0
		for j := range t.entries {
			if t.entries[j].u {
				useful++
			}
			if t.entries[j].ctr == ctrMax || t.entries[j].ctr == ctrMin {
				sat++
			}
		}
		ts.Banks = append(ts.Banks, sim.BankStats{
			Bank:      i + 1,
			Kind:      "tagged",
			Entries:   len(t.entries),
			Live:      t.live,
			HistLen:   t.cfg.HistLen,
			Reach:     t.cfg.HistLen,
			UsefulSet: useful,
			Saturated: sat,
			Allocs:    t.allocs,
			Evictions: t.evictions,
			Hits:      p.providerHits[i+1],
		})
	}
	if p.sc != nil {
		ts.Weights = append(ts.Weights, sim.WeightArrayStats(0, "sc", 0, p.sc, -32, 31))
	}
	return ts
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.Explainer        = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
