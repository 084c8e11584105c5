// Snapshot support (bfbp.state.v1): mutable state is the per-branch
// history table and the shared PHT.

package local

import (
	"io"

	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("local")
	h.Int(len(p.histories))
	h.Int(p.histBits)
	h.Int(p.pht.Len())
	return h.Sum()
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	s := state.New(p.Name(), p.configHash())
	s.Section("histories").U32s(p.histories)
	p.pht.Save(s.Section("pht"))
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter. Both sections are read, each
// history checked against its width, before the one Snapshot.Err
// check, so a failed load changes nothing.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	d := s.Dec("histories")
	hist := d.U32s(len(p.histories))
	for i, h := range hist {
		if h>>p.histBits != 0 {
			d.Corruptf("history %d is %#x, wider than %d bits", i, h, p.histBits)
		}
	}
	pht := p.pht.Load(s.Dec("pht"))
	if err := s.Err(); err != nil {
		return err
	}
	copy(p.histories, hist)
	pht()
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
