// Snapshot support (bfbp.state.v1). Mutable state: tagged entries and
// their folded-history registers, the base bimodal, the history ring and
// path register, the allocator RNG and u-reset clock, the loop predictor
// and statistical corrector, and the provider histogram. The in-flight
// checkpoint ring is deliberately not serialised: snapshots are taken at
// quiescent points (no prediction awaiting its update).

package tage

import (
	"errors"
	"fmt"
	"io"

	"bfbp/internal/history"
	"bfbp/internal/looppred"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("tage")
	h.String(p.cfg.Name)
	h.Int(p.cfg.BaseLogEntries)
	h.Int(len(p.cfg.Tables))
	for _, t := range p.cfg.Tables {
		h.Int(t.HistLen)
		h.Int(t.TagBits)
		h.Int(t.LogEntries)
	}
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
		return errors.New("tage: cannot snapshot with in-flight predictions")
	}
	s := state.New(p.Name(), p.configHash())
	for i, t := range p.tables {
		e := s.Section("table_" + itoa(i))
		for j := range t.entries {
			e.U16(t.entries[j].tag)
			e.I8(t.entries[j].ctr)
			e.Bool(t.entries[j].u)
		}
		t.foldIdx.SaveState(e)
		t.foldTag0.SaveState(e)
		t.foldTag1.SaveState(e)
	}
	b := s.Section("base")
	b.Bools(p.basePred)
	b.Bools(p.baseHyst)
	hs := s.Section("history")
	p.ring.SaveState(hs)
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

// LoadState implements sim.Snapshotter. Every section is decoded and
// validated into locals before any of them is committed, so a failed
// load leaves the predictor untouched.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	type tableState struct {
		entries []entry
		folds   [3]history.Folded // foldIdx, foldTag0, foldTag1
	}
	tabs := make([]tableState, len(p.tables))
	for i, t := range p.tables {
		d, err := s.Dec("table_" + itoa(i))
		if err != nil {
			return err
		}
		ts := tableState{
			entries: make([]entry, len(t.entries)),
			folds:   [3]history.Folded{*t.foldIdx, *t.foldTag0, *t.foldTag1},
		}
		for j := range ts.entries {
			ts.entries[j] = entry{tag: d.U16(), ctr: d.I8(), u: d.Bool()}
		}
		for k := range ts.folds {
			if err := ts.folds[k].LoadState(d); err != nil {
				return fmt.Errorf("table %d fold %d: %w", i, k, err)
			}
		}
		if d.Remaining() != 0 {
			return fmt.Errorf("%w: %d trailing bytes in table %d", state.ErrCorrupt, d.Remaining(), i)
		}
		tabs[i] = ts
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
	hs, err := s.Dec("history")
	if err != nil {
		return err
	}
	ring := history.NewRing(p.ring.Cap())
	if err := ring.LoadState(hs); err != nil {
		return err
	}
	path := history.NewPath(p.cfg.PathBits)
	if err := path.LoadState(hs); err != nil {
		return err
	}
	m, err := s.Dec("misc")
	if err != nil {
		return err
	}
	useAltOnNA, tick, rngState, withLoop := m.I32(), m.Int(), m.U64(), m.I32()
	hits := m.U64s()
	if err := m.Err(); err != nil {
		return err
	}
	if len(hits) != len(p.providerHits) {
		return fmt.Errorf("%w: provider histogram has %d buckets, snapshot %d", state.ErrCorrupt, len(p.providerHits), len(hits))
	}
	var loop *looppred.Predictor
	if p.loop != nil {
		ld, err := s.Dec("loop")
		if err != nil {
			return err
		}
		loop = looppred.NewDefault()
		if err := loop.LoadState(ld); err != nil {
			return err
		}
	}
	var sc []int8
	if p.sc != nil {
		sd, err := s.Dec("sc")
		if err != nil {
			return err
		}
		sc = sd.I8s()
		if err := sd.Err(); err != nil {
			return err
		}
		if len(sc) != len(p.sc) {
			return fmt.Errorf("%w: statistical corrector has %d counters, snapshot %d", state.ErrCorrupt, len(p.sc), len(sc))
		}
	}

	for i, t := range p.tables {
		t.entries = tabs[i].entries
		*t.foldIdx, *t.foldTag0, *t.foldTag1 = tabs[i].folds[0], tabs[i].folds[1], tabs[i].folds[2]
	}
	copy(p.basePred, basePred)
	copy(p.baseHyst, baseHyst)
	p.ring, p.path = ring, path
	p.useAltOnNA, p.tick, p.withLoop = useAltOnNA, tick, withLoop
	p.r.SetState(rngState)
	copy(p.providerHits, hits)
	p.loop = loop
	copy(p.sc, sc)
	p.inflight.Reset()
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
