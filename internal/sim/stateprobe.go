// StateProbe and the predictor-internals introspection surface. The
// runtime observability layers (metrics, journal, traces) watch
// *how fast* a run goes and *how accurate* it is; StateProbe watches
// the predictor state those numbers come from — which banks are full,
// which tags collide, which weights saturate. The paper's claim is a
// capacity statement (bias-free history lets a fixed budget reach
// deeper correlations), so the harness needs a capacity view:
// occupancy by history length is how `analyze -utilization` shows
// bf-tage's deep banks earning their keep where a conventional TAGE's
// alias out.

package sim

import "strconv"

// StateProbe is the optional interface for predictors that can report
// structured statistics over their internal tables. ProbeState must be
// observation-only: calling it any number of times, at any point
// between an Update and the next Predict, must not change any
// prediction the predictor will ever make. Implementations scan their
// tables at call time (the harness samples at batch boundaries, so
// O(table) walks are off the hot path).
type StateProbe interface {
	ProbeState() TableStats
}

// TableStats is one point-in-time sample of a predictor's internal
// state: indexed banks (PHTs, tagged tables, caches, classifiers),
// weight arrays of the adder cores, and recency-stack segments. It is
// also the tablestats event, its json tags the journal schema.
type TableStats struct {
	// Trace names the run's trace and Span its run span; the engine
	// fills both in, ProbeState leaves them zero.
	Trace string `json:"trace"`
	// Predictor is the reporting predictor's Name(); the engine
	// replaces it with the cell's predictor name.
	Predictor string `json:"predictor"`
	// Branch is the committed-branch count the harness took the sample
	// at.
	Branch uint64 `json:"branch"`
	// Banks describes each indexed table, in storage order.
	Banks []BankStats `json:"banks,omitempty"`
	// Weights describes each weight array of an adder-tree core.
	Weights []WeightStats `json:"weights,omitempty"`
	// Recency describes each recency-stack segment of a bias-free core.
	Recency []RecencyStats `json:"recency,omitempty"`
	Span    uint64         `json:"span,omitempty"`
	// cell is the engine's per-Run identity of the sample's cell.
	cell int
}

// BankStats describes one indexed table.
type BankStats struct {
	// Bank is the table's position in the predictor's storage order
	// (0 is the base/choice structure where one exists).
	Bank int `json:"bank"`
	// Kind classifies the bank: "base", "tagged", "pht", "lhist",
	// "choice", "cache", "filter", "bst".
	Kind string `json:"kind"`
	// Entries is the bank's capacity.
	Entries int `json:"entries"`
	// Live counts entries holding trained state: a set valid bit for
	// tagged/cache banks, an allocation since reset for TAGE tagged
	// tables, a counter away from its reset value for PHT-style banks.
	Live int `json:"live"`
	// HistLen is the history length indexing the bank, in the
	// predictor's own history bits (BF-GHR bits for bias-free cores);
	// 0 for PC-indexed banks.
	HistLen int `json:"hist_len,omitempty"`
	// Reach is the raw-branch depth the bank's history can observe —
	// equal to HistLen for conventional predictors, and the segment
	// bound for bias-free cores (the paper's structural advantage).
	Reach int `json:"reach,omitempty"`
	// UsefulSet counts set useful bits (TAGE tagged tables).
	UsefulSet int `json:"useful,omitempty"`
	// Saturated counts counters pinned at either clamp bound.
	Saturated int `json:"saturated,omitempty"`
	// Allocs counts entry installs since construction (TAGE tagged
	// tables); Evictions counts installs that displaced a previously
	// allocated entry — the tag-conflict signal.
	Allocs    uint64 `json:"allocs,omitempty"`
	Evictions uint64 `json:"evictions,omitempty"`
}

// Label renders the bank as a stable metric/track label ("T1:tagged").
func (b BankStats) Label() string {
	if b.Kind == "" {
		return "T" + strconv.Itoa(b.Bank)
	}
	return "T" + strconv.Itoa(b.Bank) + ":" + b.Kind
}

// Occupancy is the live fraction of the bank.
func (b BankStats) Occupancy() float64 {
	if b.Entries == 0 {
		return 0
	}
	return float64(b.Live) / float64(b.Entries)
}

// ConflictRate is the fraction of installs that evicted a previously
// allocated entry.
func (b BankStats) ConflictRate() float64 {
	if b.Allocs == 0 {
		return 0
	}
	return float64(b.Evictions) / float64(b.Allocs)
}

// WeightStats describes one weight array of an adder-tree core.
type WeightStats struct {
	// Bank is the array's position in the predictor's storage order.
	Bank int `json:"bank"`
	// Name identifies the array ("W3", "bias", "Wm", "sc").
	Name string `json:"name"`
	// HistLen is the history length feeding the array (0 for bias rows).
	HistLen int `json:"hist_len,omitempty"`
	// Weights is the array length; Live counts non-zero weights and
	// Saturated counts weights pinned at either clamp bound.
	Weights   int `json:"weights"`
	Live      int `json:"live"`
	Saturated int `json:"saturated"`
	// L1 is the sum of absolute weight values; Max is the largest
	// absolute value.
	L1  int64 `json:"l1"`
	Max int32 `json:"max"`
}

// SaturationRate is the clamped fraction of the array.
func (w WeightStats) SaturationRate() float64 {
	if w.Weights == 0 {
		return 0
	}
	return float64(w.Saturated) / float64(w.Weights)
}

// RecencyStats describes one segment of a segmented recency stack (or
// the whole stack, for single-stack cores).
type RecencyStats struct {
	// Segment indexes the segment; Size is its capacity and Live its
	// occupied depth.
	Segment int `json:"segment"`
	Size    int `json:"size"`
	Live    int `json:"live"`
	// Depth is the raw-branch depth bound of the segment.
	Depth int `json:"depth,omitempty"`
}

// ProbeState implements StateProbe. A static predictor holds no
// mutable state, so the sample carries identity only.
func (s *StaticPredictor) ProbeState() TableStats {
	return TableStats{Predictor: s.Name()}
}

var _ StateProbe = (*StaticPredictor)(nil)

// WeightArrayStats summarises an int8 weight array as one WeightStats.
func WeightArrayStats(bank int, name string, histLen int, w []int8, min, max int8) WeightStats {
	ws := WeightStats{Bank: bank, Name: name, HistLen: histLen, Weights: len(w)}
	for _, v := range w {
		if v != 0 {
			ws.Live++
		}
		if v == min || v == max {
			ws.Saturated++
		}
		a := int64(v)
		if a < 0 {
			a = -a
		}
		ws.L1 += a
		if int32(a) > ws.Max {
			ws.Max = int32(a)
		}
	}
	return ws
}
