// Snapshot support (bfbp.state.v1): mutable state is the choice PHT,
// the two tagged exception caches, and the history register.

package yags

import (
	"fmt"
	"io"
	"slices"

	"bfbp/internal/counters"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("yags")
	h.String(p.cfg.Name)
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
// whose counters carry the configured widths.
func loadCache(d *state.Dec, cache []cacheEntry) ([]cacheEntry, error) {
	out := slices.Clone(cache)
	for i := range out {
		out[i].tag = d.U16()
		out[i].ctr.Set(d.I32())
		out[i].valid = d.Bool()
	}
	return out, d.Err()
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

// LoadState implements sim.Snapshotter. Every section is decoded
// before any is committed, so a failed load changes nothing.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	cd, err := s.Dec("choice")
	if err != nil {
		return err
	}
	choice, err := counters.DecodeSigned(cd, len(p.choice))
	if err != nil {
		return err
	}
	caches := [2][]cacheEntry{p.tCache, p.ntCache}
	for k, name := range [2]string{"t_cache", "nt_cache"} {
		d, err := s.Dec(name)
		if err != nil {
			return err
		}
		if caches[k], err = loadCache(d, caches[k]); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	g, err := s.Dec("ghr")
	if err != nil {
		return err
	}
	ghr := g.U64()
	if err := g.Err(); err != nil {
		return err
	}
	counters.SetSigned(p.choice, choice)
	copy(p.tCache, caches[0])
	copy(p.ntCache, caches[1])
	p.ghr = ghr
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
