// Snapshot support (bfbp.state.v1). Mutable state: the weight tables,
// the history's sections, and the adaptive threshold. The in-flight
// checkpoint ring is transient: snapshots are taken at quiescent points.

package gehl

import (
	"errors"
	"io"

	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash(p.org.Kind)
	h.String("") // the retired name override: the hash keeps its place
	h.Int(p.cfg.Tables)
	h.Int(p.cfg.LogEntries)
	p.hist.HashConfig(h)
	h.Int(p.cfg.CounterBits)
	return h.Sum()
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	if p.inflight.Len() != 0 {
		return errors.New("gehl: cannot snapshot with in-flight predictions")
	}
	s := state.New(p.Name(), p.configHash())
	te := s.Section("tables")
	te.U32(uint32(len(p.tables)))
	for _, t := range p.tables {
		te.I8s(t)
	}
	if err := p.hist.SaveState(s); err != nil {
		return err
	}
	m := s.Section("misc")
	m.I32(p.theta)
	m.I32(p.tc)
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter. Every section is read and
// every weight checked against [wMin, wMax] before the one
// Snapshot.Err check, so a failed load changes nothing.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	td := s.Dec("tables")
	if n := int(td.U32()); n != len(p.tables) {
		td.Corruptf("predictor has %d tables, snapshot %d", len(p.tables), n)
	}
	fresh := make([][]int8, len(p.tables))
	for i := range fresh {
		fresh[i] = td.I8s(len(p.tables[i]))
		for j, w := range fresh[i] {
			if w < p.wMin || w > p.wMax {
				td.Corruptf("table %d weight %d is %d, outside [%d, %d]", i, j, w, p.wMin, p.wMax)
			}
		}
	}
	m := s.Dec("misc")
	theta, tc := m.I32(), m.I32()
	commitHist := p.hist.LoadState(s)
	if err := s.Err(); err != nil {
		return err
	}
	p.tables = fresh
	commitHist()
	p.theta, p.tc = theta, tc
	p.inflight.Reset()
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
