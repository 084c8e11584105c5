// Package gshare implements McFarling's gshare predictor: a pattern
// history table of 2-bit counters indexed by the XOR of the branch PC and
// the global history register. It is the canonical global-history baseline
// and a sanity reference for the harness.
package gshare

import (
	"bfbp/internal/counters"
	"bfbp/internal/sim"
)

// Predictor is a gshare predictor.
type Predictor struct {
	table    counters.Signed
	mask     uint64
	ghr      uint64
	histBits int
}

// New returns a gshare predictor with a power-of-two PHT size and the
// given global history length (<= 64).
func New(entries, histBits int) *Predictor {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("gshare: entries must be a positive power of two")
	}
	if histBits < 1 || histBits > 64 {
		panic("gshare: histBits out of range")
	}
	return &Predictor{table: counters.NewSigned(entries, 2), mask: uint64(entries - 1), histBits: histBits}
}

func (p *Predictor) index(pc uint64) int {
	h := p.ghr
	if p.histBits < 64 {
		h &= (1 << p.histBits) - 1
	}
	return int(((pc >> 2) ^ h) & p.mask)
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string { return "gshare" }

// Predict implements sim.Predictor.
func (p *Predictor) Predict(pc uint64) bool { return p.table.Taken(p.index(pc)) }

// Update implements sim.Predictor.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	p.table.Update(p.index(pc), taken)
	p.ghr <<= 1
	if taken {
		p.ghr |= 1
	}
}

// Storage implements sim.StorageAccounter.
func (p *Predictor) Storage() sim.Breakdown {
	return sim.Breakdown{
		Name: p.Name(),
		Components: []sim.Component{
			{Name: "PHT 2-bit counters", Bits: 2 * p.table.Len()},
			{Name: "global history register", Bits: p.histBits},
		},
	}
}

// ProbeState implements sim.StateProbe: a probe-time scan of the PHT
// for warmth (non-zero counters) and saturation.
func (p *Predictor) ProbeState() sim.TableStats {
	live, sat := p.table.Census()
	return sim.TableStats{
		Predictor: p.Name(),
		Banks: []sim.BankStats{
			{Bank: 0, Kind: "pht", Entries: p.table.Len(), Live: live, Saturated: sat, HistLen: p.histBits, Reach: p.histBits},
		},
	}
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
