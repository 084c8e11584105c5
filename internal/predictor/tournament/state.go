// Snapshot support (bfbp.state.v1): mutable state is the local history
// table, the three counter banks, and the global history register.

package tournament

import (
	"fmt"
	"io"

	"bfbp/internal/counters"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("tournament")
	h.String(p.cfg.Name)
	h.Int(p.cfg.LocalHistEntries)
	h.Int(p.cfg.LocalHistBits)
	h.Int(p.cfg.LocalPHTEntries)
	h.Int(p.cfg.GlobalEntries)
	h.Int(p.cfg.GlobalHistBits)
	h.Int(p.cfg.ChooserEntries)
	return h.Sum()
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	s := state.New(p.Name(), p.configHash())
	s.Section("local_hist").U32s(p.localHist)
	counters.SaveSigned(s.Section("local_pht"), p.localPHT)
	counters.SaveSigned(s.Section("global_pht"), p.global)
	counters.SaveSigned(s.Section("chooser"), p.chooser)
	s.Section("ghr").U64(p.ghr)
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter. Every section is decoded, in
// a fixed order, before any is committed, so a failed load changes
// nothing.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	d, err := s.Dec("local_hist")
	if err != nil {
		return err
	}
	hist := d.U32s()
	if err := d.Err(); err != nil {
		return err
	}
	if len(hist) != len(p.localHist) {
		return fmt.Errorf("%w: local history table has %d entries, snapshot %d", state.ErrCorrupt, len(p.localHist), len(hist))
	}
	banks := [3][]counters.Signed{p.localPHT, p.global, p.chooser}
	var vals [3][]int32
	for k, name := range [3]string{"local_pht", "global_pht", "chooser"} {
		bd, err := s.Dec(name)
		if err != nil {
			return err
		}
		if vals[k], err = counters.DecodeSigned(bd, len(banks[k])); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	g, err := s.Dec("ghr")
	if err != nil {
		return err
	}
	ghr := g.U64()
	if err := g.Err(); err != nil {
		return err
	}
	copy(p.localHist, hist)
	for k, bank := range banks {
		counters.SetSigned(bank, vals[k])
	}
	p.ghr = ghr
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
