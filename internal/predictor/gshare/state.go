// Snapshot support (bfbp.state.v1): mutable state is the PHT and the
// global history register.

package gshare

import (
	"io"

	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("gshare")
	h.Int(p.table.Len())
	h.Int(p.histBits)
	return h.Sum()
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	s := state.New(p.Name(), p.configHash())
	p.table.Save(s.Section("pht"))
	s.Section("ghr").U64(p.ghr)
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter. Both sections are read before
// the one Snapshot.Err check, so a failed load changes nothing.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	pht := p.table.Load(s.Dec("pht"))
	ghr := s.Dec("ghr").U64()
	if err := s.Err(); err != nil {
		return err
	}
	pht()
	p.ghr = ghr
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
