// Package bst implements the Branch Status Table of the Bias-Free
// predictor (paper §IV-B1, Fig. 5): a direct-mapped table of small finite
// state machines that classify each static branch, on the fly, as
// not-yet-seen, biased taken, biased not-taken, or non-biased.
//
// Two classifier variants are provided:
//
//   - the 2-bit FSM of the paper's feasibility study (the default), and
//   - a static profile-assisted Oracle built from a prior pass over the
//     trace, used in §VI-D to recover SERV3/FP1/MM5 accuracy.
package bst

import (
	"errors"
	"io"

	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

// State is the detection FSM state for one table entry.
type State uint8

// The four FSM states of Fig. 5.
const (
	NotFound  State = iota // never committed
	Taken                  // always resolved taken so far
	NotTaken               // always resolved not-taken so far
	NonBiased              // observed in both directions
)

// String implements fmt.Stringer for diagnostics.
func (s State) String() string {
	switch s {
	case NotFound:
		return "NotFound"
	case Taken:
		return "Taken"
	case NotTaken:
		return "NotTaken"
	case NonBiased:
		return "NonBiased"
	default:
		return "Invalid"
	}
}

// Classifier is the interface the predictors consume. Lookup must be free
// of side effects; Update is called once per committed branch.
type Classifier interface {
	// Lookup returns the current classification of pc.
	Lookup(pc uint64) State
	// Update advances the classification with a committed outcome.
	Update(pc uint64, taken bool)
	// StorageBits returns the hardware budget of the classifier.
	StorageBits() int
}

// Table is the 2-bit-FSM Branch Status Table. Entries are direct-mapped and
// untagged, exactly as in the paper's storage accounting (e.g. 16384
// entries × 2 bits for BF-Neural, 8192 × 2 bits for BF-TAGE). Aliasing
// between branches that map to the same entry is deliberate: it is part of
// the design's cost model and the dynamic-detection perturbations discussed
// in §VI-D.
type Table struct {
	states []State
	mask   uint64
}

// NewTable returns a Table with the given number of entries, which must be
// a power of two.
func NewTable(entries int) *Table {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bst: entries must be a positive power of two")
	}
	return &Table{states: make([]State, entries), mask: uint64(entries - 1)}
}

func (t *Table) index(pc uint64) uint64 { return pc & t.mask }

// Lookup returns the FSM state for pc's entry.
func (t *Table) Lookup(pc uint64) State { return t.states[t.index(pc)] }

// Update applies the Fig. 5 transitions: NotFound adopts the first outcome
// as the biased direction; a biased state that observes the opposite
// direction becomes NonBiased; NonBiased is terminal.
func (t *Table) Update(pc uint64, taken bool) {
	i := t.index(pc)
	switch t.states[i] {
	case NotFound:
		if taken {
			t.states[i] = Taken
		} else {
			t.states[i] = NotTaken
		}
	case Taken:
		if !taken {
			t.states[i] = NonBiased
		}
	case NotTaken:
		if taken {
			t.states[i] = NonBiased
		}
	case NonBiased:
		// terminal
	}
}

// StorageBits returns 2 bits per entry.
func (t *Table) StorageBits() int { return 2 * len(t.states) }

// Entries returns the table size.
func (t *Table) Entries() int { return len(t.states) }

// StateCounts returns how many entries currently sit in each FSM state,
// indexed by State (NotFound, Taken, NotTaken, NonBiased). Probe-time
// introspection only — a full-table scan, never on the prediction path.
func (t *Table) StateCounts() [4]int {
	var counts [4]int
	for _, s := range t.states {
		counts[s]++
	}
	return counts
}

// Oracle is the static profile-assisted classifier of §VI-D: branch bias
// is decided by a profiling pre-pass over the whole trace, so dynamic
// detection transients disappear. Branches never observed in the profile
// report NotFound.
type Oracle struct {
	class map[uint64]State
}

// NewOracle builds an oracle from profiled per-PC outcome counts.
// A branch is biased only if every profiled dynamic instance resolved in
// one direction ("completely biased", §I footnote).
func NewOracle() *Oracle { return &Oracle{class: make(map[uint64]State)} }

// Observe adds one profiled outcome for pc.
func (o *Oracle) Observe(pc uint64, taken bool) {
	switch o.class[pc] {
	case NotFound:
		if taken {
			o.class[pc] = Taken
		} else {
			o.class[pc] = NotTaken
		}
	case Taken:
		if !taken {
			o.class[pc] = NonBiased
		}
	case NotTaken:
		if taken {
			o.class[pc] = NonBiased
		}
	}
}

// ProfileOracle builds an oracle from a profiling pass that observes
// every record of r up to its end.
func ProfileOracle(r trace.Reader) (*Oracle, error) {
	o := NewOracle()
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			return o, nil
		}
		if err != nil {
			return nil, err
		}
		o.Observe(rec.PC, rec.Taken)
	}
}

// Lookup returns the profiled classification.
func (o *Oracle) Lookup(pc uint64) State { return o.class[pc] }

// Update is a no-op: the oracle is static. It still satisfies Classifier
// so predictors can swap it in without special cases.
func (o *Oracle) Update(pc uint64, taken bool) {}

// StorageBits reports zero: profile-assisted classification is metadata
// delivered by software (e.g. via binary annotations), not predictor SRAM.
func (o *Oracle) StorageBits() int { return 0 }

var (
	_ Classifier = (*Table)(nil)
	_ Classifier = (*Oracle)(nil)
)

// Probe appends c's classification census, when c is a Table, to ts as
// the bank after the ones already there.
func Probe(ts *sim.TableStats, c Classifier) {
	tbl, ok := c.(*Table)
	if !ok {
		return
	}
	counts := tbl.StateCounts()
	ts.Banks = append(ts.Banks, sim.BankStats{
		Bank:      len(ts.Banks),
		Kind:      "bst",
		Entries:   tbl.Entries(),
		Live:      tbl.Entries() - counts[NotFound],
		UsefulSet: counts[NonBiased],
	})
}
