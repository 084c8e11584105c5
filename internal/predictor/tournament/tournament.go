// Package tournament implements an Alpha-21264-style hybrid predictor
// (Evers, Chang & Patt, ISCA 1996; the paper's reference [17]): a local
// two-level component and a global gshare component arbitrated by a
// per-context chooser trained on which component was right. It is the
// classic answer to the local-vs-global tension that §VI-D discusses for
// SPEC07/FP2, which makes it a useful diagnostic baseline here.
package tournament

import (
	"bfbp/internal/counters"
	"bfbp/internal/sim"
)

// Config parameterises the tournament predictor.
type Config struct {
	// LocalHistEntries / LocalHistBits / LocalPHTEntries size the local
	// two-level component.
	LocalHistEntries int
	LocalHistBits    int
	LocalPHTEntries  int
	// GlobalEntries / GlobalHistBits size the gshare component.
	GlobalEntries  int
	GlobalHistBits int
	// ChooserEntries sizes the meta-predictor (indexed by global
	// history, as in the 21264).
	ChooserEntries int
}

// Default64KB sizes the hybrid at roughly 64KB.
func Default64KB() Config {
	return Config{
		LocalHistEntries: 1 << 12,
		LocalHistBits:    10,
		LocalPHTEntries:  1 << 14,
		GlobalEntries:    1 << 16,
		GlobalHistBits:   14,
		ChooserEntries:   1 << 14,
	}
}

// Predictor is a tournament hybrid.
type Predictor struct {
	cfg Config

	localHist []uint32
	lhMask    uint64
	localPHT  counters.Signed
	lpMask    uint64

	global counters.Signed
	gMask  uint64

	chooser counters.Signed // >= 0 prefers global
	chMask  uint64

	ghr uint64
}

// New returns a tournament predictor.
func New(cfg Config) *Predictor {
	for _, v := range []int{cfg.LocalHistEntries, cfg.LocalPHTEntries, cfg.GlobalEntries, cfg.ChooserEntries} {
		if v <= 0 || v&(v-1) != 0 {
			panic("tournament: table sizes must be positive powers of two")
		}
	}
	if cfg.LocalHistBits < 1 || cfg.LocalHistBits > 20 {
		panic("tournament: LocalHistBits out of range")
	}
	if cfg.GlobalHistBits < 1 || cfg.GlobalHistBits > 64 {
		panic("tournament: GlobalHistBits out of range")
	}
	return &Predictor{
		cfg:       cfg,
		localHist: make([]uint32, cfg.LocalHistEntries),
		lhMask:    uint64(cfg.LocalHistEntries - 1),
		localPHT:  counters.NewSigned(cfg.LocalPHTEntries, 3),
		lpMask:    uint64(cfg.LocalPHTEntries - 1),
		global:    counters.NewSigned(cfg.GlobalEntries, 2),
		gMask:     uint64(cfg.GlobalEntries - 1),
		chooser:   counters.NewSigned(cfg.ChooserEntries, 2),
		chMask:    uint64(cfg.ChooserEntries - 1),
	}
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string { return "tournament" }

func (p *Predictor) localIndex(pc uint64) int {
	h := uint64(p.localHist[(pc>>2)&p.lhMask])
	return int((h ^ (pc >> 2 << uint(p.cfg.LocalHistBits))) & p.lpMask)
}

func (p *Predictor) globalIndex(pc uint64) int {
	h := p.ghr
	if p.cfg.GlobalHistBits < 64 {
		h &= 1<<uint(p.cfg.GlobalHistBits) - 1
	}
	return int(((pc >> 2) ^ h) & p.gMask)
}

func (p *Predictor) chooserIndex() int { return int(p.ghr & p.chMask) }

// Components returns the two component predictions (for analysis).
func (p *Predictor) Components(pc uint64) (local, global bool) {
	return p.localPHT.Taken(p.localIndex(pc)), p.global.Taken(p.globalIndex(pc))
}

// Predict implements sim.Predictor.
func (p *Predictor) Predict(pc uint64) bool {
	local, global := p.Components(pc)
	if p.chooser.Taken(p.chooserIndex()) {
		return global
	}
	return local
}

// Update implements sim.Predictor.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	li := p.localIndex(pc)
	gi := p.globalIndex(pc)
	local := p.localPHT.Taken(li)
	global := p.global.Taken(gi)

	// Chooser trains only when the components disagree.
	if local != global {
		p.chooser.Update(p.chooserIndex(), global == taken)
	}
	p.localPHT.Update(li, taken)
	p.global.Update(gi, taken)

	lh := (pc >> 2) & p.lhMask
	p.localHist[lh] = (p.localHist[lh]<<1 | b2u32(taken)) & (1<<uint(p.cfg.LocalHistBits) - 1)
	p.ghr = p.ghr<<1 | uint64(b2u32(taken))
}

func b2u32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Storage implements sim.StorageAccounter.
func (p *Predictor) Storage() sim.Breakdown {
	return sim.Breakdown{
		Name: p.Name(),
		Components: []sim.Component{
			{Name: "local histories", Bits: p.cfg.LocalHistBits * len(p.localHist)},
			{Name: "local PHT (3-bit)", Bits: 3 * p.localPHT.Len()},
			{Name: "global PHT (2-bit)", Bits: 2 * p.global.Len()},
			{Name: "chooser (2-bit)", Bits: 2 * p.chooser.Len()},
			{Name: "history register", Bits: p.cfg.GlobalHistBits},
		},
	}
}

// ProbeState implements sim.StateProbe: warmth and saturation of all
// four component tables.
func (p *Predictor) ProbeState() sim.TableStats {
	histLive := 0
	for _, h := range p.localHist {
		if h != 0 {
			histLive++
		}
	}
	lpLive, lpSat := p.localPHT.Census()
	gLive, gSat := p.global.Census()
	chLive, chSat := p.chooser.Census()
	return sim.TableStats{
		Predictor: p.Name(),
		Banks: []sim.BankStats{
			{Bank: 0, Kind: "lhist", Entries: len(p.localHist), Live: histLive, HistLen: p.cfg.LocalHistBits, Reach: p.cfg.LocalHistBits},
			{Bank: 1, Kind: "pht", Entries: p.localPHT.Len(), Live: lpLive, Saturated: lpSat},
			{Bank: 2, Kind: "pht", Entries: p.global.Len(), Live: gLive, Saturated: gSat, HistLen: p.cfg.GlobalHistBits, Reach: p.cfg.GlobalHistBits},
			{Bank: 3, Kind: "choice", Entries: p.chooser.Len(), Live: chLive, Saturated: chSat},
		},
	}
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
