// Snapshot support (bfbp.state.v1). Mutable state: the weight and bias
// tables, the history (fold set when fhist indexing is on — the ring is
// shared inside it — otherwise the bare ring), and the adaptive
// threshold. The in-flight checkpoint ring is transient.

package perceptron

import (
	"errors"
	"fmt"
	"io"

	"bfbp/internal/sim"
	"bfbp/internal/state"
)

func (p *Predictor) configHash() uint64 {
	h := state.NewHash("perceptron")
	h.String(p.cfg.Name)
	h.Int(p.cfg.HistoryLength)
	h.Int(p.cfg.TableRows)
	h.Int(p.cfg.BiasEntries)
	h.Bool(p.cfg.FoldedHistory)
	h.Int(p.cfg.FoldWidth)
	h.Bool(p.cfg.AdaptiveTheta)
	return h.Sum()
}

// SaveState implements sim.Snapshotter.
func (p *Predictor) SaveState(w io.Writer) error {
	if p.inflight.Len() != 0 {
		return errors.New("perceptron: cannot snapshot with in-flight predictions")
	}
	s := state.New(p.Name(), p.configHash())
	s.Section("weights").I8s(p.weights)
	s.Section("bias").I8s(p.bias)
	hs := s.Section("history")
	if p.folds != nil {
		p.folds.SaveState(hs)
	} else {
		p.ring.SaveState(hs)
	}
	m := s.Section("misc")
	m.I32(p.theta)
	m.I32(p.tc)
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter. Every section is decoded
// before any is committed, so a failed load changes nothing.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.configHash())
	if err != nil {
		return err
	}
	wd, err := s.Dec("weights")
	if err != nil {
		return err
	}
	weights := wd.I8s()
	if err := wd.Err(); err != nil {
		return err
	}
	if len(weights) != len(p.weights) {
		return fmt.Errorf("%w: weight table has %d entries, snapshot %d", state.ErrCorrupt, len(p.weights), len(weights))
	}
	bd, err := s.Dec("bias")
	if err != nil {
		return err
	}
	bias := bd.I8s()
	if err := bd.Err(); err != nil {
		return err
	}
	if len(bias) != len(p.bias) {
		return fmt.Errorf("%w: bias table has %d entries, snapshot %d", state.ErrCorrupt, len(p.bias), len(bias))
	}
	m, err := s.Dec("misc")
	if err != nil {
		return err
	}
	theta, tc := m.I32(), m.I32()
	if err := m.Err(); err != nil {
		return err
	}
	// History is decoded last: its loader validates before it writes,
	// so it doubles as the commit of the history section.
	hs, err := s.Dec("history")
	if err != nil {
		return err
	}
	if p.folds != nil {
		if err := p.folds.LoadState(hs); err != nil {
			return err
		}
	} else if err := p.ring.LoadState(hs); err != nil {
		return err
	}
	copy(p.weights, weights)
	copy(p.bias, bias)
	p.theta, p.tc = theta, tc
	p.inflight.Reset()
	return nil
}

var _ sim.Snapshotter = (*Predictor)(nil)
