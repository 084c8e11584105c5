// Snapshot support (bfbp.state.v1): mutable state is the choice PHT,
// the two tagged exception caches, and the history register.

package yags

import (
	"io"
	"slices"

	"bfbp/internal/counters"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("yags")
	h.String("") // the retired name override: the hash keeps its place
	h.Int(p.cfg.ChoiceEntries)
	h.Int(p.cfg.CacheEntries)
	h.Int(p.cfg.TagBits)
	h.Int(p.cfg.HistBits)
	return h.Sum()
}

func saveCache(e *state.Enc, cache []cacheEntry) {
	for i := range cache {
		e.U16(cache[i].tag)
		e.I32(cache[i].ctr.Value())
		e.Bool(cache[i].valid)
	}
}

// loadCache decodes a cache saved by saveCache into a copy of cache,
// whose counters carry the configured widths, checking each tag against
// tagMask and each counter against its range.
func loadCache(d *state.Dec, cache []cacheEntry, tagMask uint32) []cacheEntry {
	out := slices.Clone(cache)
	for i := range out {
		e := &out[i]
		e.tag = d.U16()
		if v := d.I32(); uint32(e.tag) > tagMask || v < e.ctr.Min() || v > e.ctr.Max() {
			d.Corruptf("entry %d: tag %#x or counter %d out of range", i, e.tag, v)
		} else {
			e.ctr.Set(v)
		}
		e.valid = d.Bool()
	}
	return out
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	s := state.New(p.Name(), p.configHash())
	counters.SaveSigned(s.Section("choice"), p.choice)
	saveCache(s.Section("t_cache"), p.tCache)
	saveCache(s.Section("nt_cache"), p.ntCache)
	s.Section("ghr").U64(p.ghr)
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter. Every section is read before
// the one Snapshot.Err check, so a failed load changes nothing.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	choice := counters.LoadSigned(s.Dec("choice"), p.choice)
	tCache := loadCache(s.Dec("t_cache"), p.tCache, p.tagMask)
	ntCache := loadCache(s.Dec("nt_cache"), p.ntCache, p.tagMask)
	ghr := s.Dec("ghr").U64()
	if err := s.Err(); err != nil {
		return err
	}
	choice()
	copy(p.tCache, tCache)
	copy(p.ntCache, ntCache)
	p.ghr = ghr
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
