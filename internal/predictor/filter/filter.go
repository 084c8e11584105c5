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

// filterEntry is a filter entry's direction and valid bit; its run
// length is the entry's counter in Predictor.run.
type filterEntry struct {
	dir   bool
	valid bool
}

// Predictor is a Filter predictor: run-length filter + gshare PHT.
type Predictor struct {
	cfg     Config
	entries []filterEntry
	run     counters.Unsigned
	fMask   uint64
	pht     counters.Signed
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
	return &Predictor{
		cfg:     cfg,
		entries: make([]filterEntry, cfg.FilterEntries),
		run:     counters.NewUnsigned(cfg.FilterEntries, cfg.FilterBits),
		fMask:   uint64(cfg.FilterEntries - 1),
		pht:     counters.NewSigned(cfg.PHTEntries, 2),
		pMask:   uint64(cfg.PHTEntries - 1),
	}
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string { return "filter" }

func (p *Predictor) fIndex(pc uint64) int { return int((pc >> 2) & p.fMask) }

func (p *Predictor) pIndex(pc uint64) int {
	h := p.ghr
	if p.cfg.HistBits < 64 {
		h &= 1<<uint(p.cfg.HistBits) - 1
	}
	return int(((pc >> 2) ^ h) & p.pMask)
}

// filtered reports whether filter entry i predicts its branch by bias:
// the entry is valid and its run length is at the counter maximum.
func (p *Predictor) filtered(i int) bool { return p.entries[i].valid && p.run.IsMax(i) }

// Predict implements sim.Predictor.
func (p *Predictor) Predict(pc uint64) bool {
	if i := p.fIndex(pc); p.filtered(i) {
		return p.entries[i].dir
	}
	return p.pht.Taken(p.pIndex(pc))
}

// Update implements sim.Predictor.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	i := p.fIndex(pc)
	// Only unfiltered branches touch (and pollute) the PHT — the
	// design's entire purpose.
	if !p.filtered(i) {
		p.pht.Update(p.pIndex(pc), taken)
	}
	// Run-length bookkeeping: a new entry or a change of direction
	// starts a new run.
	if e := &p.entries[i]; e.valid && taken == e.dir {
		p.run.Inc(i)
	} else {
		*e = filterEntry{dir: taken, valid: true}
		p.run.Set(i, 0)
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
			{Name: "PHT 2-bit counters", Bits: 2 * p.pht.Len()},
			{Name: "history register", Bits: p.cfg.HistBits},
		},
	}
}

// ProbeState implements sim.StateProbe: filter fill (UsefulSet counts
// the entries currently at max run length, i.e. actively filtering
// their branch away from the PHT) plus PHT warmth.
func (p *Predictor) ProbeState() sim.TableStats {
	live, filtering := 0, 0
	for i, e := range p.entries {
		if !e.valid {
			continue
		}
		live++
		if p.run.IsMax(i) {
			filtering++
		}
	}
	phtLive, phtSat := p.pht.Census()
	return sim.TableStats{
		Predictor: p.Name(),
		Banks: []sim.BankStats{
			{Bank: 0, Kind: "filter", Entries: len(p.entries), Live: live, UsefulSet: filtering},
			{Bank: 1, Kind: "pht", Entries: p.pht.Len(), Live: phtLive, Saturated: phtSat, HistLen: p.cfg.HistBits, Reach: p.cfg.HistBits},
		},
	}
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
