// Package filter implements the Filter predictor of Chang, Evers & Patt
// (PACT 1996), which the paper's related work (§VII) identifies as the
// closest ancestor of bias-free prediction: a per-branch filter detects
// highly biased branches and predicts them directly, keeping them out of
// the shared pattern history table to reduce interference. The contrast
// with the Bias-Free predictor is the point: filtering protects the
// *tables* here, whereas BF filtering restructures the *history*.
package filter

import (
	"bfbp/internal/counters"
	"bfbp/internal/sim"
)

// Config parameterises the Filter predictor.
type Config struct {
	// FilterEntries is the power-of-two size of the per-branch filter
	// (modelling the BTB-resident counters of the original design).
	FilterEntries int
	// FilterBits is the saturating run-length counter width; a branch is
	// "filtered" (predicted by its bias) while its current same-direction
	// run meets the counter maximum.
	FilterBits int
	// PHTEntries is the power-of-two gshare pattern history table size
	// used for unfiltered branches.
	PHTEntries int
	// HistBits is the gshare history length.
	HistBits int
}

// Default64KB sizes the predictor at roughly 64KB.
func Default64KB() Config {
	return Config{
		FilterEntries: 1 << 14,
		FilterBits:    7,       // runs of 127+ count as biased, as in the paper
		PHTEntries:    1 << 17, // 2-bit counters: 32KB
		HistBits:      16,
	}
}

type filterEntry struct {
	dir   bool
	run   counters.Unsigned
	valid bool
}

// Predictor is a Filter predictor: run-length filter + gshare PHT.
type Predictor struct {
	cfg     Config
	entries []filterEntry
	fMask   uint64
	pht     []counters.Signed
	pMask   uint64
	ghr     uint64
}

// New returns a Filter predictor.
func New(cfg Config) *Predictor {
	if cfg.FilterEntries <= 0 || cfg.FilterEntries&(cfg.FilterEntries-1) != 0 {
		panic("filter: FilterEntries must be a positive power of two")
	}
	if cfg.PHTEntries <= 0 || cfg.PHTEntries&(cfg.PHTEntries-1) != 0 {
		panic("filter: PHTEntries must be a positive power of two")
	}
	if cfg.FilterBits < 1 || cfg.FilterBits > 16 {
		panic("filter: FilterBits out of range")
	}
	if cfg.HistBits < 1 || cfg.HistBits > 64 {
		panic("filter: HistBits out of range")
	}
	p := &Predictor{
		cfg:     cfg,
		entries: make([]filterEntry, cfg.FilterEntries),
		fMask:   uint64(cfg.FilterEntries - 1),
		pht:     make([]counters.Signed, cfg.PHTEntries),
		pMask:   uint64(cfg.PHTEntries - 1),
	}
	for i := range p.entries {
		p.entries[i].run = counters.NewUnsigned(cfg.FilterBits, 0)
	}
	for i := range p.pht {
		p.pht[i] = counters.NewSigned(2, 0)
	}
	return p
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string { return "filter" }

func (p *Predictor) fIndex(pc uint64) uint64 { return (pc >> 2) & p.fMask }

func (p *Predictor) pIndex(pc uint64) uint64 {
	h := p.ghr
	if p.cfg.HistBits < 64 {
		h &= 1<<uint(p.cfg.HistBits) - 1
	}
	return ((pc >> 2) ^ h) & p.pMask
}

// Predict implements sim.Predictor.
func (p *Predictor) Predict(pc uint64) bool {
	e := &p.entries[p.fIndex(pc)]
	if e.valid && e.run.IsMax() {
		return e.dir
	}
	return p.pht[p.pIndex(pc)].Taken()
}

// Update implements sim.Predictor.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	e := &p.entries[p.fIndex(pc)]
	filtered := e.valid && e.run.IsMax()
	// Only unfiltered branches touch (and pollute) the PHT — the
	// design's entire purpose.
	if !filtered {
		p.pht[p.pIndex(pc)].Update(taken)
	}
	// Run-length bookkeeping.
	if !e.valid {
		e.valid = true
		e.dir = taken
		e.run.Reset()
	} else if taken == e.dir {
		e.run.Inc()
	} else {
		e.dir = taken
		e.run.Reset()
	}
	p.ghr = p.ghr<<1 | b2u(taken)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Storage implements sim.StorageAccounter.
func (p *Predictor) Storage() sim.Breakdown {
	perFilter := 1 + 1 + p.cfg.FilterBits // valid + dir + run counter
	return sim.Breakdown{
		Name: p.Name(),
		Components: []sim.Component{
			{Name: "filter entries", Bits: perFilter * len(p.entries)},
			{Name: "PHT 2-bit counters", Bits: 2 * len(p.pht)},
			{Name: "history register", Bits: p.cfg.HistBits},
		},
	}
}

// ProbeState implements sim.StateProbe: filter fill (UsefulSet counts
// the entries currently at max run length, i.e. actively filtering
// their branch away from the PHT) plus PHT warmth.
func (p *Predictor) ProbeState() sim.TableStats {
	live, filtering := 0, 0
	for i := range p.entries {
		e := &p.entries[i]
		if !e.valid {
			continue
		}
		live++
		if e.run.IsMax() {
			filtering++
		}
	}
	phtLive, phtSat := counters.Scan(p.pht)
	return sim.TableStats{
		Predictor: p.Name(),
		Banks: []sim.BankStats{
			{Bank: 0, Kind: "filter", Entries: len(p.entries), Live: live, UsefulSet: filtering},
			{Bank: 1, Kind: "pht", Entries: len(p.pht), Live: phtLive, Saturated: phtSat, HistLen: p.cfg.HistBits, Reach: p.cfg.HistBits},
		},
	}
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
