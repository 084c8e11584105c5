// Snapshot support (bfbp.state.v1): mutable state is the choice PHT,
// the two tagged exception caches, and the history register.

package yags

import (
	"io"

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

// saveCache appends each entry as its u16 tag, its counter as an i32
// and its valid bit.
func saveCache(e *state.Enc, c *cache) {
	for i := range c.tag {
		e.U16(c.tag[i])
		e.I32(c.ctr.Value(i))
		e.Bool(c.valid[i])
	}
}

// loadCache decodes a cache of n entries saved by saveCache into a new
// cache, checking each tag against tagMask and each counter against the
// range of the cache's 2-bit counters.
func loadCache(d *state.Dec, n int, tagMask uint32) cache {
	c := newCache(n)
	for i := range n {
		c.tag[i] = d.U16()
		if v := d.I32(); uint32(c.tag[i]) > tagMask || v < c.ctr.Min() || v > c.ctr.Max() {
			d.Corruptf("entry %d: tag %#x or counter %d out of range", i, c.tag[i], v)
		} else {
			c.ctr.Set(i, v)
		}
		c.valid[i] = d.Bool()
	}
	return c
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	s := state.New(p.Name(), p.configHash())
	p.choice.Save(s.Section("choice"))
	saveCache(s.Section("t_cache"), &p.tCache)
	saveCache(s.Section("nt_cache"), &p.ntCache)
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
	choice := p.choice.Load(s.Dec("choice"))
	tCache := loadCache(s.Dec("t_cache"), p.cfg.CacheEntries, p.tagMask)
	ntCache := loadCache(s.Dec("nt_cache"), p.cfg.CacheEntries, p.tagMask)
	ghr := s.Dec("ghr").U64()
	if err := s.Err(); err != nil {
		return err
	}
	choice()
	p.tCache, p.ntCache = tCache, ntCache
	p.ghr = ghr
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
