// Snapshot support (bfbp.state.v1). Mutable state: the ragged weight
// tables, bias weights, the dynamically adapted scaling coefficients,
// the history ring, and the adaptive threshold. The in-flight checkpoint
// ring is transient.

package ohsnap

import (
	"errors"
	"fmt"
	"io"

	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("ohsnap")
	h.String(p.cfg.Name)
	h.Int(len(p.cfg.Segments))
	for _, s := range p.cfg.Segments {
		h.Int(s.Positions)
		h.Int(s.Rows)
	}
	h.Int(p.cfg.BiasEntries)
	h.Bool(true) // coefficient adaptation, always on
	return h.Sum()
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	if p.inflight.Len() != 0 {
		return errors.New("ohsnap: cannot snapshot with in-flight predictions")
	}
	s := state.New(p.Name(), p.configHash())
	s.Section("weights").I8s(p.weights)
	s.Section("bias").I8s(p.bias)
	s.Section("coeff").I32s(p.coeff)
	p.ring.SaveState(s.Section("history"))
	m := s.Section("misc")
	m.I32(p.theta)
	m.I32(p.tc)
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
	wd, err := s.Dec("weights")
	if err != nil {
		return err
	}
	weights := wd.I8s()
	if err := wd.Err(); err != nil {
		return err
	}
	if len(weights) != len(p.weights) {
		return fmt.Errorf("%w: weight table has %d entries, snapshot %d", state.ErrCorrupt, len(p.weights), len(weights))
	}
	bd, err := s.Dec("bias")
	if err != nil {
		return err
	}
	bias := bd.I8s()
	if err := bd.Err(); err != nil {
		return err
	}
	if len(bias) != len(p.bias) {
		return fmt.Errorf("%w: bias table has %d entries, snapshot %d", state.ErrCorrupt, len(p.bias), len(bias))
	}
	cd, err := s.Dec("coeff")
	if err != nil {
		return err
	}
	coeff := cd.I32s()
	if err := cd.Err(); err != nil {
		return err
	}
	if len(coeff) != len(p.coeff) {
		return fmt.Errorf("%w: coefficient vector has %d positions, snapshot %d", state.ErrCorrupt, len(p.coeff), len(coeff))
	}
	for i, c := range coeff {
		if c < coeffMin || c > coeffMax {
			return fmt.Errorf("%w: coefficient %d is %d, outside [%d, %d]", state.ErrCorrupt, i, c, coeffMin, coeffMax)
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
	// History is decoded last: its loader validates before it writes,
	// so it doubles as the commit of the history section.
	hd, err := s.Dec("history")
	if err != nil {
		return err
	}
	if err := p.ring.LoadState(hd); err != nil {
		return err
	}
	copy(p.weights, weights)
	copy(p.bias, bias)
	copy(p.coeff, coeff)
	p.theta, p.tc = theta, tc
	p.inflight.Reset()
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
