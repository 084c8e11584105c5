// Snapshot support (bfbp.state.v1). Mutable state: the BST, the three
// weight tables (Wb, Wm, Wrs), the unfiltered history fold set and the
// committed-branch counter, the filtered structure (recency stack or
// shift register, per mode), the loop predictor, and the adaptive
// threshold. The in-flight checkpoint ring is transient: snapshots are
// taken at quiescent points.

package bfneural

import (
	"errors"
	"fmt"
	"io"

	"bfbp/internal/bst"
	"bfbp/internal/history"
	"bfbp/internal/looppred"
	"bfbp/internal/rs"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("bfneural")
	h.String(p.cfg.Name)
	h.Int(int(p.cfg.Mode))
	h.Int(p.cfg.BSTEntries)
	h.String(bst.KindOf(p.class))
	h.Int(p.cfg.BiasEntries)
	h.Int(p.cfg.WmRows)
	h.Int(p.cfg.RecentUnfiltered)
	h.Int(p.cfg.WrsEntries)
	h.Int(p.cfg.RSDepth)
	h.Int(p.cfg.DistBits)
	h.Int(p.cfg.FoldWidth)
	h.Bool(p.cfg.LoopPredictor)
	h.Bool(p.cfg.NotFoundPrediction)
	h.Bool(p.cfg.AheadPipelined)
	return h.Sum()
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	if p.inflight.Len() != 0 {
		return errors.New("bfneural: cannot snapshot with in-flight predictions")
	}
	s := state.New(p.Name(), p.configHash())
	if err := bst.SaveClassifier(s.Section("bst"), p.class); err != nil {
		return err
	}
	s.Section("wb").I8s(p.wb)
	s.Section("wm").I8s(p.wm)
	s.Section("wrs").I8s(p.wrs)
	hs := s.Section("history")
	p.folds.SaveState(hs)
	hs.U64(p.seq)
	if p.rstack != nil {
		p.rstack.SaveState(s.Section("rstack"))
	} else {
		fe := s.Section("filt")
		fe.U32(uint32(len(p.filt)))
		for i := range p.filt {
			fe.U32(p.filt[i].hpc)
			fe.Bool(p.filt[i].taken)
			fe.U64(p.filt[i].seq)
		}
	}
	m := s.Section("misc")
	m.I32(p.withLoop)
	m.I32(p.theta)
	m.I32(p.tc)
	if p.loop != nil {
		p.loop.SaveState(s.Section("loop"))
	}
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter. Every section is decoded and
// validated into fresh state before any of it is committed, so a failed
// load leaves the predictor untouched.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	var banks [3][]int8
	for i, t := range []struct {
		name string
		dst  []int8
	}{{"wb", p.wb}, {"wm", p.wm}, {"wrs", p.wrs}} {
		d, err := s.Dec(t.name)
		if err != nil {
			return err
		}
		banks[i] = d.I8s()
		if err := d.Err(); err != nil {
			return err
		}
		if len(banks[i]) != len(t.dst) {
			return fmt.Errorf("%w: %s has %d weights, snapshot %d", state.ErrCorrupt, t.name, len(t.dst), len(banks[i]))
		}
	}
	hs, err := s.Dec("history")
	if err != nil {
		return err
	}
	folds := history.NewFoldSet(foldLengths(), p.cfg.FoldWidth, 4096)
	if err := folds.LoadState(hs); err != nil {
		return err
	}
	seq := hs.U64()
	if err := hs.Err(); err != nil {
		return err
	}
	var rstack *rs.Stack
	var filt []fentry
	if p.rstack != nil {
		rd, err := s.Dec("rstack")
		if err != nil {
			return err
		}
		rstack = rs.NewStack(p.cfg.RSDepth, p.cfg.DistBits)
		if err := rstack.LoadState(rd); err != nil {
			return err
		}
	} else {
		fd, err := s.Dec("filt")
		if err != nil {
			return err
		}
		n := int(fd.U32())
		if err := fd.Err(); err != nil {
			return err
		}
		if n > p.cfg.RSDepth {
			return fmt.Errorf("%w: filtered register has %d entries, depth is %d", state.ErrCorrupt, n, p.cfg.RSDepth)
		}
		filt = make([]fentry, n)
		for i := range filt {
			filt[i] = fentry{hpc: fd.U32(), taken: fd.Bool(), seq: fd.U64()}
		}
		if err := fd.Err(); err != nil {
			return err
		}
	}
	m, err := s.Dec("misc")
	if err != nil {
		return err
	}
	withLoop, theta, tc := m.I32(), m.I32(), m.I32()
	if err := m.Err(); err != nil {
		return err
	}
	var loop *looppred.Predictor
	if p.loop != nil {
		ld, err := s.Dec("loop")
		if err != nil {
			return err
		}
		loop = looppred.NewDefault()
		if err := loop.LoadState(ld); err != nil {
			return err
		}
	}
	// LoadClassifier validates its whole payload before writing, so it
	// is the last fallible step.
	cd, err := s.Dec("bst")
	if err != nil {
		return err
	}
	if err := bst.LoadClassifier(cd, p.class); err != nil {
		return err
	}

	copy(p.wb, banks[0])
	copy(p.wm, banks[1])
	copy(p.wrs, banks[2])
	p.folds, p.seq = folds, seq
	p.rstack, p.filt = rstack, filt
	p.withLoop, p.theta, p.tc = withLoop, theta, tc
	p.loop = loop
	p.inflight.Reset()
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
