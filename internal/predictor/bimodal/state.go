// Snapshot support (bfbp.state.v1): the counter table is the only
// mutable state.

package bimodal

import (
	"io"

	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("bimodal")
	h.Int(p.table.Len())
	h.Int(2) // the retired counter-width knob: the hash keeps its place
	return h.Sum()
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	s := state.New(p.Name(), p.configHash())
	p.table.Save(s.Section("pht"))
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	pht := p.table.Load(s.Dec("pht"))
	if err := s.Err(); err != nil {
		return err
	}
	pht()
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
