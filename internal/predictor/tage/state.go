// Snapshot support (bfbp.state.v1). Mutable state: the tagged entries,
// the base bimodal, the history's sections, the allocator RNG and
// u-reset clock, and the loop predictor and statistical corrector. The
// in-flight checkpoint ring is deliberately not serialised: snapshots
// are taken at quiescent points (no prediction awaiting its update).

package tage

import (
	"errors"
	"io"
	"strconv"

	"bfbp/internal/looppred"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash(p.org.Kind)
	h.String(p.cfg.Name)
	h.Int(p.cfg.BaseLogEntries)
	h.Int(len(p.cfg.Tables))
	for _, t := range p.cfg.Tables {
		h.Int(t.HistLen)
		h.Int(t.TagBits)
		h.Int(t.LogEntries)
	}
	p.hist.HashConfig(h)
	h.Int(p.cfg.PathBits)
	h.Bool(p.cfg.LoopPredictor)
	h.Bool(p.cfg.StatisticalCorrector)
	h.Bool(p.cfg.IUM)
	h.Int(uResetPeriod)
	h.U64(p.cfg.Seed)
	// Marks the misc-section layout without a provider histogram, so a
	// snapshot saved with one fails as a config mismatch.
	h.String("misc-v2")
	return h.Sum()
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	if p.inflight.Len() != 0 {
		return errors.New("tage: cannot snapshot with in-flight predictions")
	}
	s := state.New(p.Name(), p.configHash())
	for i, t := range p.tables {
		e := s.Section("table_" + strconv.Itoa(i))
		// The SoA arrays serialise in interleaved per-entry order.
		for j := range t.tags {
			e.U16(t.tags[j])
			e.I8(t.ctrs[j])
			e.Bool(t.u(uint32(j)))
		}
	}
	b := s.Section("base")
	b.Bools(p.basePred)
	b.Bools(p.baseHyst)
	if err := p.hist.SaveState(s); err != nil {
		return err
	}
	m := s.Section("misc")
	m.I32(p.useAltOnNA)
	m.Int(p.tick)
	m.U64(p.r.State())
	m.I32(p.withLoop)
	if p.loop != nil {
		p.loop.SaveState(s.Section("loop"))
	}
	if p.sc != nil {
		s.Section("sc").I8s(p.sc)
	}
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter. Every section is read and
// checked, each counter against its range and each tag against its
// width, before the one Snapshot.Err check; only then is anything
// installed, so a failed load leaves the predictor untouched.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	type tableState struct {
		tags   []uint16
		ctrs   []int8
		useful []uint64
	}
	tabs := make([]tableState, len(p.tables))
	for i, t := range p.tables {
		d := s.Dec("table_" + strconv.Itoa(i))
		ts := tableState{
			tags:   make([]uint16, len(t.tags)),
			ctrs:   make([]int8, len(t.ctrs)),
			useful: make([]uint64, len(t.useful)),
		}
		for j := range ts.tags {
			ts.tags[j], ts.ctrs[j] = d.U16(), d.I8()
			if d.Bool() {
				ts.useful[j>>6] |= 1 << (j & 63)
			}
			if uint32(ts.tags[j]) > t.tagMask || ts.ctrs[j] < ctrMin || ts.ctrs[j] > ctrMax {
				d.Corruptf("entry %d: tag %#x or counter %d out of range", j, ts.tags[j], ts.ctrs[j])
			}
		}
		tabs[i] = ts
	}
	b := s.Dec("base")
	basePred, baseHyst := b.Bools(len(p.basePred)), b.Bools(len(p.baseHyst))
	m := s.Dec("misc")
	useAltOnNA, tick, rngState, withLoop := m.I32(), m.Int(), m.U64(), m.I32()
	if useAltOnNA < 0 || useAltOnNA > 15 || withLoop < -64 || withLoop > 63 {
		m.Corruptf("use-alt %d or loop chooser %d out of range", useAltOnNA, withLoop)
	}
	if tick < 0 || tick >= uResetPeriod {
		m.Corruptf("useful-reset tick %d outside [0, %d)", tick, uResetPeriod)
	}
	var loop *looppred.Predictor
	if p.loop != nil {
		loop = looppred.NewDefault()
		loop.LoadState(s.Dec("loop"))
	}
	var sc []int8
	if p.sc != nil {
		sd := s.Dec("sc")
		sc = sd.I8s(len(p.sc))
		for i, v := range sc {
			if v < scMin || v > scMax {
				sd.Corruptf("counter %d is %d, outside [%d, %d]", i, v, scMin, scMax)
			}
		}
	}
	commitHist := p.hist.LoadState(s)
	if err := s.Err(); err != nil {
		return err
	}

	for i, t := range p.tables {
		t.tags, t.ctrs, t.useful = tabs[i].tags, tabs[i].ctrs, tabs[i].useful
	}
	copy(p.basePred, basePred)
	copy(p.baseHyst, baseHyst)
	commitHist()
	p.useAltOnNA, p.tick, p.withLoop = useAltOnNA, tick, withLoop
	p.r.SetState(rngState)
	p.loop = loop
	copy(p.sc, sc)
	p.inflight.Reset()
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
