// Package local implements a two-level local-history predictor in the
// style of the Alpha 21264's local component: a table of per-branch
// history registers indexing a shared pattern history table. §VI-D of the
// paper attributes BF-TAGE's losses on SPEC07 and FP2 to branches that are
// "intrinsically better predicted through the use of local history"; this
// predictor makes that claim directly testable.
package local

import (
	"bfbp/internal/counters"
	"bfbp/internal/sim"
)

// Predictor is a two-level local predictor.
type Predictor struct {
	histories []uint32
	histMask  uint64
	histBits  int
	pht       counters.Signed
	phtMask   uint64
}

// New returns a local predictor with the given power-of-two history-table
// and PHT sizes and per-branch history length (<= 20).
func New(histEntries, histBits, phtEntries int) *Predictor {
	if histEntries <= 0 || histEntries&(histEntries-1) != 0 {
		panic("local: histEntries must be a positive power of two")
	}
	if phtEntries <= 0 || phtEntries&(phtEntries-1) != 0 {
		panic("local: phtEntries must be a positive power of two")
	}
	if histBits < 1 || histBits > 20 {
		panic("local: histBits out of range")
	}
	p := &Predictor{
		histories: make([]uint32, histEntries),
		histMask:  uint64(histEntries - 1),
		histBits:  histBits,
		pht:       counters.NewSigned(phtEntries, 3),
		phtMask:   uint64(phtEntries - 1),
	}
	return p
}

func (p *Predictor) phtIndex(pc uint64) int {
	h := uint64(p.histories[(pc>>2)&p.histMask])
	return int((h ^ (pc >> 2 << uint(p.histBits))) & p.phtMask)
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string { return "local" }

// Predict implements sim.Predictor.
func (p *Predictor) Predict(pc uint64) bool { return p.pht.Taken(p.phtIndex(pc)) }

// Update implements sim.Predictor.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	p.pht.Update(p.phtIndex(pc), taken)
	hi := (pc >> 2) & p.histMask
	h := p.histories[hi] << 1
	if taken {
		h |= 1
	}
	p.histories[hi] = h & (1<<p.histBits - 1)
}

// Storage implements sim.StorageAccounter.
func (p *Predictor) Storage() sim.Breakdown {
	return sim.Breakdown{
		Name: p.Name(),
		Components: []sim.Component{
			{Name: "local history table", Bits: p.histBits * len(p.histories)},
			{Name: "PHT 3-bit counters", Bits: 3 * p.pht.Len()},
		},
	}
}

// ProbeState implements sim.StateProbe: warmth of the per-branch
// history table (non-zero registers) and the shared PHT.
func (p *Predictor) ProbeState() sim.TableStats {
	histLive := 0
	for _, h := range p.histories {
		if h != 0 {
			histLive++
		}
	}
	phtLive, phtSat := p.pht.Census()
	return sim.TableStats{
		Predictor: p.Name(),
		Banks: []sim.BankStats{
			{Bank: 0, Kind: "lhist", Entries: len(p.histories), Live: histLive, HistLen: p.histBits, Reach: p.histBits},
			{Bank: 1, Kind: "pht", Entries: p.pht.Len(), Live: phtLive, Saturated: phtSat},
		},
	}
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
