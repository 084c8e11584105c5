// Package bimodal implements the classic PC-indexed table of 2-bit
// saturating counters (Smith, 1981), the floor baseline in the accuracy
// comparisons. TAGE's tagless base predictor T0 (§V-A) is the same
// design, kept inside the TAGE engine as prediction and hysteresis bits.
package bimodal

import (
	"bfbp/internal/counters"
	"bfbp/internal/sim"
)

// Predictor is a direct-mapped bimodal predictor of 2-bit counters.
type Predictor struct {
	table counters.Signed
	mask  uint64
}

// New returns a bimodal predictor with the given power-of-two entry
// count.
func New(entries int) *Predictor {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bimodal: entries must be a positive power of two")
	}
	return &Predictor{table: counters.NewSigned(entries, 2), mask: uint64(entries - 1)}
}

func (p *Predictor) index(pc uint64) int { return int((pc >> 2) & p.mask) }

// Name implements sim.Predictor.
func (p *Predictor) Name() string { return "bimodal" }

// Predict implements sim.Predictor.
func (p *Predictor) Predict(pc uint64) bool { return p.table.Taken(p.index(pc)) }

// Update implements sim.Predictor.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	p.table.Update(p.index(pc), taken)
}

// Storage implements sim.StorageAccounter.
func (p *Predictor) Storage() sim.Breakdown {
	return sim.Breakdown{
		Name: p.Name(),
		Components: []sim.Component{
			{Name: "2-bit counters", Bits: 2 * p.table.Len()},
		},
	}
}

// ProbeState implements sim.StateProbe: a probe-time scan of the
// counter table for warmth (non-zero counters) and saturation.
func (p *Predictor) ProbeState() sim.TableStats {
	live, sat := p.table.Census()
	return sim.TableStats{
		Predictor: p.Name(),
		Banks: []sim.BankStats{
			{Bank: 0, Kind: "pht", Entries: p.table.Len(), Live: live, Saturated: sat},
		},
	}
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
