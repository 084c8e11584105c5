// Snapshot support (bfbp.state.v1). Mutable state: the ragged weight
// tables, bias weights, the dynamically adapted scaling coefficients,
// the history ring, and the adaptive threshold. The in-flight checkpoint
// ring is transient.

package ohsnap

import (
	"errors"
	"io"

	"bfbp/internal/history"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("ohsnap")
	h.String("") // the retired name override: the hash keeps its place
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

// LoadState implements sim.Snapshotter. Every section is read, each
// coefficient checked against its adaptation clamps, before the one
// Snapshot.Err check, so a failed load changes nothing.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	weights := s.Dec("weights").I8s(len(p.weights))
	bias := s.Dec("bias").I8s(len(p.bias))
	cd := s.Dec("coeff")
	coeff := cd.I32s(len(p.coeff))
	for i, c := range coeff {
		if c < coeffMin || c > coeffMax {
			cd.Corruptf("coefficient %d is %d, outside [%d, %d]", i, c, coeffMin, coeffMax)
		}
	}
	ring := history.NewRing(p.ring.Cap())
	ring.LoadState(s.Dec("history"))
	m := s.Dec("misc")
	theta, tc := m.I32(), m.I32()
	if theta < thetaFloor || tc <= -thetaPeriod || tc >= thetaPeriod {
		m.Corruptf("threshold %d below %d or its counter %d outside (-%d, %d)", theta, thetaFloor, tc, thetaPeriod, thetaPeriod)
	}
	if err := s.Err(); err != nil {
		return err
	}
	copy(p.weights, weights)
	copy(p.bias, bias)
	copy(p.coeff, coeff)
	p.ring = ring
	p.theta, p.tc = theta, tc
	p.inflight.Reset()
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
