// Snapshot support (bfbp.state.v1): mutable state is the run-length
// filter entries, the PHT, and the history register.

package filter

import (
	"io"
	"slices"

	"bfbp/internal/counters"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("filter")
	h.String("") // the retired name override: the hash keeps its place
	h.Int(p.cfg.FilterEntries)
	h.Int(p.cfg.FilterBits)
	h.Int(p.cfg.PHTEntries)
	h.Int(p.cfg.HistBits)
	return h.Sum()
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	s := state.New(p.Name(), p.configHash())
	fe := s.Section("filter")
	for i := range p.entries {
		fe.Bool(p.entries[i].dir)
		fe.U32(p.entries[i].run.Value())
		fe.Bool(p.entries[i].valid)
	}
	counters.SaveSigned(s.Section("pht"), p.pht)
	s.Section("ghr").U64(p.ghr)
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter. Every section is read, each
// counter checked against its range, before the one Snapshot.Err
// check, so a failed load changes nothing.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	fd := s.Dec("filter")
	entries := slices.Clone(p.entries)
	for i := range entries {
		e := &entries[i]
		e.dir = fd.Bool()
		if run := fd.U32(); run > e.run.Max() {
			fd.Corruptf("entry %d run %d above %d", i, run, e.run.Max())
		} else {
			e.run.Set(run)
		}
		e.valid = fd.Bool()
	}
	pht := counters.LoadSigned(s.Dec("pht"), p.pht)
	ghr := s.Dec("ghr").U64()
	if err := s.Err(); err != nil {
		return err
	}
	copy(p.entries, entries)
	pht()
	p.ghr = ghr
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
