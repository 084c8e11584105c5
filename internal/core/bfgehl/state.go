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

// LoadState implements sim.Snapshotter.
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
	cd, err := s.Dec("bst")
	if err != nil {
		return err
	}
	if err := bst.LoadClassifier(cd, p.class); err != nil {
		return err
	}
	hd, err := s.Dec("history")
	if err != nil {
		return err
	}
	if err := p.seg.LoadState(hd); err != nil {
		return err
	}
	// The fold pipeline is derived state: rebuild its register tails
	// from the restored segments' packed words (LoadState reset them, so
	// feeding the absolute words through the delta path reconstructs).
	p.pipe.Reset()
	for i := 0; i < p.seg.Segments(); i++ {
		tw, pw := p.seg.PackedWords(i)
		p.pipe.SegmentDelta2(i, tw, pw)
	}
	m, err := s.Dec("misc")
	if err != nil {
		return err
	}
	p.theta = m.I32()
	p.tc = m.I32()
	if err := m.Err(); err != nil {
		return err
	}
	for i := range p.tables {
		copy(p.tables[i], fresh[i])
	}
	p.inflight.Reset()
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
