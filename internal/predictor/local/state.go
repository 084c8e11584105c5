// Snapshot support (bfbp.state.v1): mutable state is the per-branch
// history table and the shared PHT.

package local

import (
	"fmt"
	"io"

	"bfbp/internal/counters"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("local")
	h.Int(len(p.histories))
	h.Int(p.histBits)
	h.Int(len(p.pht))
	return h.Sum()
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	s := state.New(p.Name(), p.configHash())
	s.Section("histories").U32s(p.histories)
	counters.SaveSigned(s.Section("pht"), p.pht)
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	d, err := s.Dec("histories")
	if err != nil {
		return err
	}
	hist := d.U32s()
	if err := d.Err(); err != nil {
		return err
	}
	if len(hist) != len(p.histories) {
		return fmt.Errorf("%w: local history table has %d entries, snapshot %d", state.ErrCorrupt, len(p.histories), len(hist))
	}
	pd, err := s.Dec("pht")
	if err != nil {
		return err
	}
	pht, err := counters.DecodeSigned(pd, len(p.pht))
	if err != nil {
		return err
	}
	copy(p.histories, hist)
	counters.SetSigned(p.pht, pht)
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
