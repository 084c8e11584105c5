// Snapshot support (bfbp.state.v1): mutable state is the run-length
// filter entries, the PHT, and the history register.

package filter

import (
	"io"

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
	for i, e := range p.entries {
		fe.Bool(e.dir)
		fe.U32(p.run.Value(i))
		fe.Bool(e.valid)
	}
	p.pht.Save(s.Section("pht"))
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
	entries := make([]filterEntry, len(p.entries))
	runs := counters.NewUnsigned(len(p.entries), p.cfg.FilterBits)
	for i := range entries {
		e := &entries[i]
		e.dir = fd.Bool()
		if run := fd.U32(); run > runs.Max() {
			fd.Corruptf("entry %d run %d above %d", i, run, runs.Max())
		} else {
			runs.Set(i, run)
		}
		e.valid = fd.Bool()
	}
	pht := p.pht.Load(s.Dec("pht"))
	ghr := s.Dec("ghr").U64()
	if err := s.Err(); err != nil {
		return err
	}
	p.entries, p.run = entries, runs
	pht()
	p.ghr = ghr
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
