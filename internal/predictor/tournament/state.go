// Snapshot support (bfbp.state.v1): mutable state is the local history
// table, the three counter banks, and the global history register.

package tournament

import (
	"io"

	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("tournament")
	h.String("") // the retired name override: the hash keeps its place
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
	p.localPHT.Save(s.Section("local_pht"))
	p.global.Save(s.Section("global_pht"))
	p.chooser.Save(s.Section("chooser"))
	s.Section("ghr").U64(p.ghr)
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter. Every section is read, each
// local history checked against its width, before the one
// Snapshot.Err check, so a failed load changes nothing.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	d := s.Dec("local_hist")
	hist := d.U32s(len(p.localHist))
	for i, h := range hist {
		if h>>p.cfg.LocalHistBits != 0 {
			d.Corruptf("local history %d is %#x, wider than %d bits", i, h, p.cfg.LocalHistBits)
		}
	}
	localPHT := p.localPHT.Load(s.Dec("local_pht"))
	global := p.global.Load(s.Dec("global_pht"))
	chooser := p.chooser.Load(s.Dec("chooser"))
	ghr := s.Dec("ghr").U64()
	if err := s.Err(); err != nil {
		return err
	}
	copy(p.localHist, hist)
	localPHT()
	global()
	chooser()
	p.ghr = ghr
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
