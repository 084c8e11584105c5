// Snapshotter and the capability-introspection surface. Optional
// predictor interfaces used to be discovered by scattered type asserts
// across the cmds; Capabilities probes them all in one place so callers
// branch on a struct instead of repeating assertion boilerplate.

package sim

import (
	"io"

	"bfbp/internal/state"
)

// Snapshotter is the optional interface for predictors whose state can
// be serialised to the bfbp.state.v1 format and restored bit-exactly:
// running N branches, saving, loading into a fresh identically-configured
// instance, and running M more must equal a straight N+M run.
//
// SaveState must be called at a quiescent point — after Update for a
// committed branch, never between Predict and Update (under delayed
// updates the in-flight FIFO is deliberately not serialised).
// LoadState overwrites all mutable state; it validates the snapshot's
// predictor name and config hash first and returns typed errors from
// the state package on mismatch or corruption.
type Snapshotter interface {
	SaveState(w io.Writer) error
	LoadState(r io.Reader) error
}

// CapabilitySet holds a predictor's optional interfaces, each nil when
// unimplemented. It is the introspection surface the cmds use instead
// of ad-hoc type asserts.
type CapabilitySet struct {
	Storage    StorageAccounter
	Explain    Explainer
	Snapshot   Snapshotter
	StateProbe StateProbe
}

// Capabilities probes p for every optional interface.
func Capabilities(p Predictor) CapabilitySet {
	var c CapabilitySet
	c.Storage, _ = p.(StorageAccounter)
	c.Explain, _ = p.(Explainer)
	c.Snapshot, _ = p.(Snapshotter)
	c.StateProbe, _ = p.(StateProbe)
	return c
}

// Names lists the implemented capabilities as short stable tags, in a
// fixed order: storage, explain, snapshot, state-probe.
func (c CapabilitySet) Names() []string {
	var names []string
	if c.Storage != nil {
		names = append(names, "storage")
	}
	if c.Explain != nil {
		names = append(names, "explain")
	}
	if c.Snapshot != nil {
		names = append(names, "snapshot")
	}
	if c.StateProbe != nil {
		names = append(names, "state-probe")
	}
	return names
}

// configHash binds a static predictor's snapshots to its direction.
func (s *StaticPredictor) configHash() uint64 {
	h := state.NewHash("static")
	h.Bool(s.Direction)
	return h.Sum()
}

// SaveState implements Snapshotter. A static predictor has no mutable
// state; the snapshot carries identity only.
func (s *StaticPredictor) SaveState(w io.Writer) error {
	snap := state.New(s.Name(), s.configHash())
	snap.Section("static")
	_, err := snap.WriteTo(w)
	return err
}

// LoadState implements Snapshotter. The empty "static" section is read
// too, so extra bytes or sections fail as corrupt.
func (s *StaticPredictor) LoadState(r io.Reader) error {
	snap, err := state.Load(r, s.Name(), s.configHash())
	if err != nil {
		return err
	}
	snap.Dec("static")
	return snap.Err()
}

var _ Snapshotter = (*StaticPredictor)(nil)
