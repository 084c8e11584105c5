// Snapshot support (bfbp.state.v1). Mutable state: tagged entries, the
// base bimodal, the Branch Status Table, the segmented recency stacks
// (which carry the unfiltered history ring), the path register, the
// allocator RNG and u-reset clock, the loop predictor and statistical
// corrector, and the provider histogram. The in-flight checkpoint ring
// and the fold-pipeline scratch are transient: snapshots are taken at
// quiescent points (no prediction awaiting its update).

package bftage

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"bfbp/internal/bst"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("bftage")
	h.String(p.cfg.Name)
	h.Int(p.cfg.BaseLogEntries)
	h.Int(len(p.cfg.Tables))
	for _, t := range p.cfg.Tables {
		h.Int(t.HistLen)
		h.Int(t.TagBits)
		h.Int(t.LogEntries)
	}
	h.Int(p.cfg.UnfilteredBits)
	h.Ints(p.cfg.SegBounds)
	h.Int(p.cfg.SegSize)
	h.Int(p.cfg.BSTEntries)
	h.String(bst.KindOf(p.class))
	h.Int(p.cfg.PathBits)
	h.Bool(p.cfg.LoopPredictor)
	h.Bool(p.cfg.StatisticalCorrector)
	h.Bool(p.cfg.IUM)
	h.Int(p.cfg.UResetPeriod)
	h.U64(p.cfg.Seed)
	return h.Sum()
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	if p.inflight.Len() != 0 {
		return errors.New("bftage: cannot snapshot with in-flight predictions")
	}
	s := state.New(p.Name(), p.configHash())
	for i, t := range p.tables {
		e := s.Section("table_" + strconv.Itoa(i))
		// The SoA arrays serialise in the historical interleaved per-entry
		// order so snapshot bytes stay identical across layouts.
		for j := range t.tags {
			e.U16(t.tags[j])
			e.I8(t.ctrs[j])
			e.Bool(t.u(uint32(j)))
		}
	}
	b := s.Section("base")
	b.Bools(p.basePred)
	b.Bools(p.baseHyst)
	if err := bst.SaveClassifier(s.Section("bst"), p.class); err != nil {
		return err
	}
	hs := s.Section("history")
	p.seg.SaveState(hs)
	p.path.SaveState(hs)
	m := s.Section("misc")
	m.I32(p.useAltOnNA)
	m.Int(p.tick)
	m.U64(p.r.State())
	m.I32(p.withLoop)
	m.U64s(p.providerHits)
	if p.loop != nil {
		p.loop.SaveState(s.Section("loop"))
	}
	if p.sc != nil {
		s.Section("sc").I8s(p.sc)
	}
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	for i, t := range p.tables {
		d, err := s.Dec("table_" + strconv.Itoa(i))
		if err != nil {
			return err
		}
		for j := range t.tags {
			t.tags[j] = d.U16()
			t.ctrs[j] = d.I8()
			t.setU(uint32(j), d.Bool())
		}
		if err := d.Err(); err != nil {
			return fmt.Errorf("table %d: %w", i, err)
		}
		if d.Remaining() != 0 {
			return fmt.Errorf("%w: %d trailing bytes in table %d", state.ErrCorrupt, d.Remaining(), i)
		}
	}
	b, err := s.Dec("base")
	if err != nil {
		return err
	}
	basePred, baseHyst := b.Bools(), b.Bools()
	if err := b.Err(); err != nil {
		return err
	}
	if len(basePred) != len(p.basePred) || len(baseHyst) != len(p.baseHyst) {
		return fmt.Errorf("%w: base bimodal is %d+%d entries, snapshot %d+%d",
			state.ErrCorrupt, len(p.basePred), len(p.baseHyst), len(basePred), len(baseHyst))
	}
	copy(p.basePred, basePred)
	copy(p.baseHyst, baseHyst)
	cd, err := s.Dec("bst")
	if err != nil {
		return err
	}
	if err := bst.LoadClassifier(cd, p.class); err != nil {
		return err
	}
	hs, err := s.Dec("history")
	if err != nil {
		return err
	}
	if err := p.seg.LoadState(hs); err != nil {
		return err
	}
	// The fold pipeline is derived state: rebuild its register tails
	// from the restored segments' packed words (LoadState reset them, so
	// feeding the absolute words through the delta path reconstructs).
	p.pipe.Reset()
	for i := 0; i < p.seg.Segments(); i++ {
		tw, pw := p.seg.PackedWords(i)
		p.pipe.SegmentDelta2(i, tw, pw)
	}
	if err := p.path.LoadState(hs); err != nil {
		return err
	}
	m, err := s.Dec("misc")
	if err != nil {
		return err
	}
	p.useAltOnNA = m.I32()
	p.tick = m.Int()
	p.r.SetState(m.U64())
	p.withLoop = m.I32()
	hits := m.U64s()
	if err := m.Err(); err != nil {
		return err
	}
	if len(hits) != len(p.providerHits) {
		return fmt.Errorf("%w: provider histogram has %d buckets, snapshot %d", state.ErrCorrupt, len(p.providerHits), len(hits))
	}
	copy(p.providerHits, hits)
	if p.loop != nil {
		ld, err := s.Dec("loop")
		if err != nil {
			return err
		}
		if err := p.loop.LoadState(ld); err != nil {
			return err
		}
	}
	if p.sc != nil {
		sd, err := s.Dec("sc")
		if err != nil {
			return err
		}
		sc := sd.I8s()
		if err := sd.Err(); err != nil {
			return err
		}
		if len(sc) != len(p.sc) {
			return fmt.Errorf("%w: statistical corrector has %d counters, snapshot %d", state.ErrCorrupt, len(p.sc), len(sc))
		}
		copy(p.sc, sc)
	}
	p.inflight.Reset()
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
