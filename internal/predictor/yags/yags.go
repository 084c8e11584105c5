// Package yags implements the YAGS predictor (Eden & Mudge, MICRO 1998),
// cited in the paper's related work (§16): a choice PHT records each
// branch's bias, and two small tagged "exception" caches record only the
// instances where global history disagrees with that bias. It is the
// classical bias-aware design predating bias-free filtering: bias handled
// by a default structure, history capacity spent only on the exceptions.
package yags

import (
	"bfbp/internal/counters"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
)

// Config parameterises YAGS.
type Config struct {
	// ChoiceEntries is the power-of-two bias (choice) PHT size.
	ChoiceEntries int
	// CacheEntries is the power-of-two size of each direction cache.
	CacheEntries int
	// TagBits is the partial-tag width in the direction caches.
	TagBits int
	// HistBits is the global history length.
	HistBits int
}

// Default64KB sizes YAGS at roughly 64KB.
func Default64KB() Config {
	return Config{
		ChoiceEntries: 1 << 16,
		CacheEntries:  1 << 14,
		TagBits:       8,
		HistBits:      14,
	}
}

type cacheEntry struct {
	tag   uint16
	ctr   counters.Signed
	valid bool
}

// Predictor is a YAGS predictor.
type Predictor struct {
	cfg     Config
	choice  []counters.Signed
	cMask   uint64
	tCache  []cacheEntry // consulted when choice says not-taken
	ntCache []cacheEntry // consulted when choice says taken
	dMask   uint64
	tagMask uint32
	ghr     uint64
}

// New returns a YAGS predictor.
func New(cfg Config) *Predictor {
	for _, v := range []int{cfg.ChoiceEntries, cfg.CacheEntries} {
		if v <= 0 || v&(v-1) != 0 {
			panic("yags: table sizes must be positive powers of two")
		}
	}
	if cfg.TagBits < 2 || cfg.TagBits > 16 {
		panic("yags: TagBits out of range")
	}
	if cfg.HistBits < 1 || cfg.HistBits > 64 {
		panic("yags: HistBits out of range")
	}
	p := &Predictor{
		cfg:     cfg,
		choice:  make([]counters.Signed, cfg.ChoiceEntries),
		cMask:   uint64(cfg.ChoiceEntries - 1),
		tCache:  make([]cacheEntry, cfg.CacheEntries),
		ntCache: make([]cacheEntry, cfg.CacheEntries),
		dMask:   uint64(cfg.CacheEntries - 1),
		tagMask: uint32(1<<cfg.TagBits - 1),
	}
	for i := range p.choice {
		p.choice[i] = counters.NewSigned(2, 0)
	}
	for i := range p.tCache {
		p.tCache[i].ctr = counters.NewSigned(2, 0)
		p.ntCache[i].ctr = counters.NewSigned(2, 0)
	}
	return p
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string { return "yags" }

func (p *Predictor) choiceIndex(pc uint64) uint64 { return (pc >> 2) & p.cMask }

func (p *Predictor) cacheIndex(pc uint64) (uint64, uint32) {
	h := p.ghr
	if p.cfg.HistBits < 64 {
		h &= 1<<uint(p.cfg.HistBits) - 1
	}
	idx := ((pc >> 2) ^ h) & p.dMask
	tag := uint32(rng.Hash64(pc>>2)>>13) & p.tagMask
	return idx, tag
}

// Predict implements sim.Predictor.
func (p *Predictor) Predict(pc uint64) bool {
	bias := p.choice[p.choiceIndex(pc)].Taken()
	idx, tag := p.cacheIndex(pc)
	// The cache opposite the bias holds the exceptions.
	cache := p.ntCache
	if !bias {
		cache = p.tCache
	}
	if e := &cache[idx]; e.valid && uint32(e.tag) == tag {
		return e.ctr.Taken()
	}
	return bias
}

// Update implements sim.Predictor.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	ci := p.choiceIndex(pc)
	bias := p.choice[ci].Taken()
	idx, tag := p.cacheIndex(pc)
	cache := p.ntCache
	if !bias {
		cache = p.tCache
	}
	e := &cache[idx]
	hit := e.valid && uint32(e.tag) == tag
	if hit {
		e.ctr.Update(taken)
	} else if taken != bias {
		// Allocate an exception entry only when the bias got it wrong.
		e.valid = true
		e.tag = uint16(tag)
		e.ctr = counters.NewSigned(2, b2i(taken)*2-1)
	}
	// Choice PHT trains except when the exception cache was both right
	// and the bias wrong (standard YAGS partial-update rule).
	if !(hit && e.ctr.Taken() == taken && bias != taken) {
		p.choice[ci].Update(taken)
	}
	p.ghr = p.ghr<<1 | uint64(b2i(taken))
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// Storage implements sim.StorageAccounter.
func (p *Predictor) Storage() sim.Breakdown {
	perCache := (2 + p.cfg.TagBits + 1) * len(p.tCache)
	return sim.Breakdown{
		Name: p.Name(),
		Components: []sim.Component{
			{Name: "choice PHT", Bits: 2 * len(p.choice)},
			{Name: "taken cache", Bits: perCache},
			{Name: "not-taken cache", Bits: perCache},
			{Name: "history register", Bits: p.cfg.HistBits},
		},
	}
}

// cacheStats scans one direction cache at probe time: valid entries are
// live, and a live entry pinned at a counter bound is saturated.
func cacheStats(bank int, cache []cacheEntry, histBits int) sim.BankStats {
	live, sat := 0, 0
	for i := range cache {
		e := &cache[i]
		if !e.valid {
			continue
		}
		live++
		if v := e.ctr.Value(); v == e.ctr.Min() || v == e.ctr.Max() {
			sat++
		}
	}
	return sim.BankStats{
		Bank: bank, Kind: "cache", Entries: len(cache), Live: live, Saturated: sat,
		HistLen: histBits, Reach: histBits,
	}
}

// ProbeState implements sim.StateProbe: choice-PHT warmth plus the fill
// and saturation of the two exception caches.
func (p *Predictor) ProbeState() sim.TableStats {
	chLive, chSat := counters.Scan(p.choice)
	return sim.TableStats{
		Predictor: p.Name(),
		Banks: []sim.BankStats{
			{Bank: 0, Kind: "choice", Entries: len(p.choice), Live: chLive, Saturated: chSat},
			cacheStats(1, p.tCache, p.cfg.HistBits),
			cacheStats(2, p.ntCache, p.cfg.HistBits),
		},
	}
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
