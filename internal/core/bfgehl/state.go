// Snapshot support (bfbp.state.v1). Mutable state: the weight tables,
// the BST, the segmented recency stacks (which carry the unfiltered
// history ring), and the adaptive threshold. The in-flight checkpoint
// ring is transient: snapshots are taken at quiescent points.

package bfgehl

import (
	"errors"
	"fmt"
	"io"

	"bfbp/internal/bst"
	"bfbp/internal/rs"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("bfgehl")
	h.String(p.cfg.Name)
	h.Int(p.cfg.Tables)
	h.Int(p.cfg.LogEntries)
	h.Ints(p.hists)
	h.Int(p.cfg.UnfilteredBits)
	h.Ints(p.cfg.SegBounds)
	h.Int(p.cfg.SegSize)
	h.Int(p.cfg.BSTEntries)
	h.Int(p.cfg.CounterBits)
	return h.Sum()
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	if p.inflight.Len() != 0 {
		return errors.New("bfgehl: cannot snapshot with in-flight predictions")
	}
	s := state.New(p.Name(), p.configHash())
	te := s.Section("tables")
	te.U32(uint32(len(p.tables)))
	for _, t := range p.tables {
		te.I8s(t)
	}
	if err := bst.SaveClassifier(s.Section("bst"), p.class); err != nil {
		return err
	}
	p.seg.SaveState(s.Section("history"))
	m := s.Section("misc")
	m.I32(p.theta)
	m.I32(p.tc)
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter. Every section is decoded and
// validated into locals (fresh recency stacks included) before anything
// is committed, and the classifier, whose load validates before it
// writes, loads last: a failed load leaves the predictor untouched.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	td, err := s.Dec("tables")
	if err != nil {
		return err
	}
	n := int(td.U32())
	if err := td.Err(); err != nil {
		return err
	}
	if n != len(p.tables) {
		return fmt.Errorf("%w: predictor has %d tables, snapshot %d", state.ErrCorrupt, len(p.tables), n)
	}
	fresh := make([][]int8, n)
	for i := range fresh {
		fresh[i] = td.I8s()
		if err := td.Err(); err != nil {
			return err
		}
		if len(fresh[i]) != len(p.tables[i]) {
			return fmt.Errorf("%w: table %d has %d entries, snapshot %d", state.ErrCorrupt, i, len(p.tables[i]), len(fresh[i]))
		}
	}
	hd, err := s.Dec("history")
	if err != nil {
		return err
	}
	seg := rs.NewSegmented(p.cfg.SegBounds, p.cfg.SegSize)
	if err := seg.LoadState(hd); err != nil {
		return err
	}
	m, err := s.Dec("misc")
	if err != nil {
		return err
	}
	theta, tc := m.I32(), m.I32()
	if err := m.Err(); err != nil {
		return err
	}
	cd, err := s.Dec("bst")
	if err != nil {
		return err
	}
	if err := bst.LoadClassifier(cd, p.class); err != nil {
		return err
	}

	p.tables = fresh
	p.seg = seg
	// The key map is derived state: attaching it to the restored
	// stacks feeds it their packed words, which rebuilds it from empty.
	p.keys.Reset()
	seg.SetPackObserver(p.keys.SegmentDelta)
	p.theta, p.tc = theta, tc
	p.inflight.Reset()
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
