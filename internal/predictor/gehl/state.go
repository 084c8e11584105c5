// Snapshot support (bfbp.state.v1). Mutable state: the weight tables,
// the history's sections, and the adaptive threshold. The in-flight
// checkpoint ring is transient: snapshots are taken at quiescent points.

package gehl

import (
	"errors"
	"fmt"
	"io"

	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash(p.org.Kind)
	h.String(p.cfg.Name)
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

// LoadState implements sim.Snapshotter. Every section is decoded
// before any is committed, and the history, whose load leaves it
// untouched on error, loads last: a failed load changes nothing.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	td, err := s.Dec("tables")
	if err != nil {
		return err
	}
	n := int(td.U32())
	if err := td.Err(); err != nil {
		return err
	}
	if n != len(p.tables) {
		return fmt.Errorf("%w: predictor has %d tables, snapshot %d", state.ErrCorrupt, len(p.tables), n)
	}
	fresh := make([][]int8, n)
	for i := range fresh {
		fresh[i] = td.I8s()
		if err := td.Err(); err != nil {
			return err
		}
		if len(fresh[i]) != len(p.tables[i]) {
			return fmt.Errorf("%w: table %d has %d entries, snapshot %d", state.ErrCorrupt, i, len(p.tables[i]), len(fresh[i]))
		}
	}
	m, err := s.Dec("misc")
	if err != nil {
		return err
	}
	theta, tc := m.I32(), m.I32()
	if err := m.Err(); err != nil {
		return err
	}
	commitHist, err := p.hist.LoadState(s)
	if err != nil {
		return err
	}
	p.tables = fresh
	commitHist()
	p.theta, p.tc = theta, tc
	p.inflight.Reset()
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
