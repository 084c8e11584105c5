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

// cache is one direction's tagged exception cache: a partial tag, a
// valid bit and a 2-bit counter per entry.
type cache struct {
	tag   []uint16
	valid []bool
	ctr   counters.Signed
}

func newCache(n int) cache {
	return cache{tag: make([]uint16, n), valid: make([]bool, n), ctr: counters.NewSigned(n, 2)}
}

func (c *cache) hit(i int, tag uint32) bool { return c.valid[i] && uint32(c.tag[i]) == tag }

// Predictor is a YAGS predictor.
type Predictor struct {
	cfg     Config
	choice  counters.Signed
	cMask   uint64
	tCache  cache // consulted when choice says not-taken
	ntCache cache // consulted when choice says taken
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
	return &Predictor{
		cfg:     cfg,
		choice:  counters.NewSigned(cfg.ChoiceEntries, 2),
		cMask:   uint64(cfg.ChoiceEntries - 1),
		tCache:  newCache(cfg.CacheEntries),
		ntCache: newCache(cfg.CacheEntries),
		dMask:   uint64(cfg.CacheEntries - 1),
		tagMask: uint32(1<<cfg.TagBits - 1),
	}
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string { return "yags" }

func (p *Predictor) choiceIndex(pc uint64) int { return int((pc >> 2) & p.cMask) }

func (p *Predictor) cacheIndex(pc uint64) (int, uint32) {
	h := p.ghr
	if p.cfg.HistBits < 64 {
		h &= 1<<uint(p.cfg.HistBits) - 1
	}
	idx := int(((pc >> 2) ^ h) & p.dMask)
	tag := uint32(rng.Hash64(pc>>2)>>13) & p.tagMask
	return idx, tag
}

// Predict implements sim.Predictor.
func (p *Predictor) Predict(pc uint64) bool {
	bias := p.choice.Taken(p.choiceIndex(pc))
	idx, tag := p.cacheIndex(pc)
	// The cache opposite the bias holds the exceptions.
	c := &p.ntCache
	if !bias {
		c = &p.tCache
	}
	if c.hit(idx, tag) {
		return c.ctr.Taken(idx)
	}
	return bias
}

// Update implements sim.Predictor.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	ci := p.choiceIndex(pc)
	bias := p.choice.Taken(ci)
	idx, tag := p.cacheIndex(pc)
	c := &p.ntCache
	if !bias {
		c = &p.tCache
	}
	hit := c.hit(idx, tag)
	if hit {
		c.ctr.Update(idx, taken)
	} else if taken != bias {
		// Allocate an exception entry only when the bias got it wrong.
		c.valid[idx] = true
		c.tag[idx] = uint16(tag)
		c.ctr.Set(idx, b2i(taken)*2-1)
	}
	// Choice PHT trains except when the exception cache was both right
	// and the bias wrong (standard YAGS partial-update rule).
	if !(hit && c.ctr.Taken(idx) == taken && bias != taken) {
		p.choice.Update(ci, taken)
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
	perCache := (2 + p.cfg.TagBits + 1) * p.tCache.ctr.Len()
	return sim.Breakdown{
		Name: p.Name(),
		Components: []sim.Component{
			{Name: "choice PHT", Bits: 2 * p.choice.Len()},
			{Name: "taken cache", Bits: perCache},
			{Name: "not-taken cache", Bits: perCache},
			{Name: "history register", Bits: p.cfg.HistBits},
		},
	}
}

// cacheStats scans one direction cache at probe time: valid entries are
// live, and a live entry pinned at a counter bound is saturated.
func cacheStats(bank int, c *cache, histBits int) sim.BankStats {
	live, sat := 0, 0
	for i, valid := range c.valid {
		if !valid {
			continue
		}
		live++
		if v := c.ctr.Value(i); v == c.ctr.Min() || v == c.ctr.Max() {
			sat++
		}
	}
	return sim.BankStats{
		Bank: bank, Kind: "cache", Entries: len(c.valid), Live: live, Saturated: sat,
		HistLen: histBits, Reach: histBits,
	}
}

// ProbeState implements sim.StateProbe: choice-PHT warmth plus the fill
// and saturation of the two exception caches.
func (p *Predictor) ProbeState() sim.TableStats {
	chLive, chSat := p.choice.Census()
	return sim.TableStats{
		Predictor: p.Name(),
		Banks: []sim.BankStats{
			{Bank: 0, Kind: "choice", Entries: p.choice.Len(), Live: chLive, Saturated: chSat},
			cacheStats(1, &p.tCache, p.cfg.HistBits),
			cacheStats(2, &p.ntCache, p.cfg.HistBits),
		},
	}
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
