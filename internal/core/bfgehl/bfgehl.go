// Package bfgehl applies the paper's bias-free history to an O-GEHL-style
// predictor — the natural third instantiation after BF-Neural and
// BF-TAGE. The paper argues (§V) that a bias-free global history register
// lets a TAGE reach deep correlations with fewer tables; the same BF-GHR
// can index GEHL's summed weight tables, giving a tagless predictor whose
// geometric history lengths are measured in compressed (bias-free) bits.
//
// This is an extension beyond the paper's evaluated designs, included to
// demonstrate that the BF-GHR is a reusable substrate: the predictor
// composes internal/rs.Segmented (Fig. 7) with gehl-style adder trees.
package bfgehl

import (
	"strconv"

	"bfbp/internal/bst"
	"bfbp/internal/history"
	"bfbp/internal/inflight"
	"bfbp/internal/rng"
	"bfbp/internal/rs"
	"bfbp/internal/sim"
)

// Config parameterises BF-GEHL.
type Config struct {
	Name string
	// Tables is the number of weight tables; table 0 is PC-indexed.
	Tables int
	// LogEntries is log2 of each table's entry count.
	LogEntries int
	// Hists are the per-table BF-GHR lengths for tables 1..Tables-1
	// (nil = geometric from 2 to the BF-GHR width).
	Hists []int
	// UnfilteredBits, SegBounds, SegSize configure the BF-GHR exactly as
	// in BF-TAGE.
	UnfilteredBits int
	SegBounds      []int
	SegSize        int
	// BSTEntries sizes the Branch Status Table.
	BSTEntries int
	// CounterBits is the weight width.
	CounterBits int
}

// Default64KB is an 8-table ~64KB BF-GEHL over the paper's segmentation.
func Default64KB() Config {
	return Config{
		Tables:         8,
		LogEntries:     13,
		UnfilteredBits: 16,
		SegBounds:      []int{16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048},
		SegSize:        8,
		BSTEntries:     8192,
		CounterBits:    5,
	}
}

// checkpoint is one in-flight prediction: the adder-tree sum and each
// table's index, in an array sized once per ring slot.
type checkpoint struct {
	pc   uint64
	sum  int32
	idxs []uint32
}

// Predictor is a BF-GEHL predictor.
type Predictor struct {
	cfg    Config
	tables [][]int8
	mask   uint64
	hists  []int
	class  bst.Classifier
	seg    *rs.Segmented
	wMax   int8
	wMin   int8
	theta  int32
	tc     int32
	// inflight holds the predictions awaiting their update, oldest
	// first; its free slot doubles as scratch for lookups that never go
	// in flight.
	inflight inflight.Ring[checkpoint]
	// keys is the linear key map over the BF-GHR: field i-1 is table
	// i's fold (table 0 is PC-indexed and has none), kept current by the
	// segment deltas instead of re-folding the whole vector per lookup.
	// kw is Lookup scratch.
	keys *history.KeyMap
	kw   []uint64
}

// New returns a BF-GEHL predictor for cfg.
func New(cfg Config) *Predictor {
	if cfg.Tables < 2 {
		panic("bfgehl: need at least two tables")
	}
	if cfg.LogEntries < 4 || cfg.LogEntries > 22 {
		panic("bfgehl: LogEntries out of range")
	}
	if cfg.CounterBits < 2 || cfg.CounterBits > 8 {
		panic("bfgehl: CounterBits out of range")
	}
	if cfg.BSTEntries <= 0 || cfg.BSTEntries&(cfg.BSTEntries-1) != 0 {
		panic("bfgehl: BSTEntries must be a positive power of two")
	}
	if cfg.UnfilteredBits < 0 || cfg.UnfilteredBits > 64 {
		panic("bfgehl: UnfilteredBits out of range")
	}
	p := &Predictor{
		cfg:   cfg,
		mask:  uint64(1<<cfg.LogEntries - 1),
		seg:   rs.NewSegmented(cfg.SegBounds, cfg.SegSize),
		class: bst.NewTable(cfg.BSTEntries),
		wMax:  int8(1<<(cfg.CounterBits-1) - 1),
		wMin:  int8(-(1 << (cfg.CounterBits - 1))),
		theta: int32(cfg.Tables),
	}
	p.tables = make([][]int8, cfg.Tables)
	for i := range p.tables {
		p.tables[i] = make([]int8, 1<<cfg.LogEntries)
	}
	ghrBits := cfg.UnfilteredBits + p.seg.Bits()
	if cfg.Hists != nil {
		p.hists = append([]int{0}, cfg.Hists...)
	} else {
		p.hists = append([]int{0}, history.GeometricRange(2, ghrBits, cfg.Tables-1)...)
	}
	for _, h := range p.hists[1:] {
		if h > ghrBits {
			panic("bfgehl: history length exceeds BF-GHR width")
		}
	}
	fields := make([][]history.Term, 0, cfg.Tables-1)
	for _, h := range p.hists[1:] {
		fields = append(fields, []history.Term{{Ch: 0, N: h, Width: cfg.LogEntries}})
	}
	p.keys = history.NewKeyMap(cfg.UnfilteredBits, cfg.SegSize, p.seg.Segments(), fields)
	p.kw = make([]uint64, p.keys.Words())
	p.seg.SetPackObserver(p.keys.SegmentDelta)
	p.inflight = inflight.New(func() checkpoint {
		return checkpoint{idxs: make([]uint32, cfg.Tables)}
	})
	return p
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string {
	if p.cfg.Name != "" {
		return p.cfg.Name
	}
	return "bf-gehl"
}

// GHRBits returns the BF-GHR width.
func (p *Predictor) GHRBits() int { return p.cfg.UnfilteredBits + p.seg.Bits() }

// compute evaluates the adder-tree sum for pc, filling idxs with each
// table's index. Per-table folds come from the key map (maintained key
// words with the unfiltered prefix rows XORed on top) — no BF-GHR
// rebuild, no per-table fold. It produces exactly the indices of the
// reference model (asserted by TestComputeDifferential).
func (p *Predictor) compute(pc uint64, idxs []uint32) int32 {
	kw := p.kw
	p.keys.Lookup(p.seg.Ring().RecentTaken(p.cfg.UnfilteredBits), 0, kw)
	pch := rng.Hash64(pc >> 2)
	var sum int32
	for i := range p.tables {
		var key uint64
		if i == 0 {
			key = pch
		} else {
			key = pch ^ p.keys.Field(kw, i-1)<<3 ^ uint64(i)<<57
		}
		idx := uint32(rng.Hash64(key) & p.mask)
		idxs[i] = idx
		sum += 2*int32(p.tables[i][idx]) + 1
	}
	return sum
}

// Predict implements sim.Predictor.
func (p *Predictor) Predict(pc uint64) bool {
	cp := p.lookup(pc)
	p.inflight.Push()
	return cp.sum >= 0
}

// lookup fills the ring's free slot with pc's sum and table indices. The
// slot is not put in flight.
func (p *Predictor) lookup(pc uint64) *checkpoint {
	cp := p.inflight.Next()
	cp.pc = pc
	cp.sum = p.compute(pc, cp.idxs)
	return cp
}

// Update implements sim.Predictor. An update whose PC does not match the
// oldest checkpoint (a caller that skipped Predict) commits from a fresh
// lookup instead.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	if p.inflight.Len() > 0 && p.inflight.At(0).pc == pc {
		p.commit(p.inflight.At(0), taken)
		p.inflight.Pop()
	} else {
		p.commit(p.lookup(pc), taken)
	}
}

// commit applies the resolved outcome to the tables cp indexed and to
// the BF-GHR.
func (p *Predictor) commit(cp *checkpoint, taken bool) {
	pc, sum := cp.pc, cp.sum
	pred := sum >= 0
	mag := sum
	if mag < 0 {
		mag = -mag
	}
	if pred != taken || mag <= p.theta {
		for i, idx := range cp.idxs {
			w := p.tables[i][idx]
			if taken {
				if w < p.wMax {
					p.tables[i][idx] = w + 1
				}
			} else if w > p.wMin {
				p.tables[i][idx] = w - 1
			}
		}
		p.adaptTheta(pred != taken, mag)
	}
	// Commit into the BF-GHR with the branch's bias classification.
	p.class.Update(pc, taken)
	p.seg.Commit(history.Entry{
		HashedPC:  uint32(rng.Hash64(pc>>2) & 0x3FFF),
		Taken:     taken,
		NonBiased: p.class.Lookup(pc) == bst.NonBiased,
	})
}

func (p *Predictor) adaptTheta(mispred bool, mag int32) {
	if mispred {
		p.tc++
		if p.tc >= 32 {
			p.theta++
			p.tc = 0
		}
	} else if mag <= p.theta {
		p.tc--
		if p.tc <= -32 {
			if p.theta > 1 {
				p.theta--
			}
			p.tc = 0
		}
	}
}

// explainTopWeights is the number of contributions Explain reports.
const explainTopWeights = 8

// Explain implements sim.Explainer: the adder-tree sum against theta
// with per-table 2w+1 contributions (Position = table index), plus the
// branch's BST classification. BF-GEHL's filter gates history insertion,
// not prediction, so FilterDecision stays false.
func (p *Predictor) Explain(pc uint64) sim.Provenance {
	cp := p.inflight.Last(func(q *checkpoint) bool { return q.pc == pc })
	if cp == nil {
		cp = p.lookup(pc)
	}
	ws := make([]sim.WeightContrib, 0, len(cp.idxs))
	for i, idx := range cp.idxs {
		ws = append(ws, sim.WeightContrib{Position: i, Weight: 2*int32(p.tables[i][idx]) + 1})
	}
	mag := cp.sum
	if mag < 0 {
		mag = -mag
	}
	return sim.Provenance{
		Predictor:  p.Name(),
		Component:  "adder",
		Prediction: cp.sum >= 0,
		Confidence: mag,
		Threshold:  p.theta,
		TopWeights: sim.TopWeightContribs(ws, explainTopWeights),
		BiasState:  p.class.Lookup(pc).String(),
	}
}

// Storage implements sim.StorageAccounter.
func (p *Predictor) Storage() sim.Breakdown {
	return sim.Breakdown{
		Name: p.Name(),
		Components: []sim.Component{
			{Name: "weight tables", Bits: p.cfg.Tables * p.cfg.CounterBits << uint(p.cfg.LogEntries)},
			{Name: "BST", Bits: p.class.StorageBits()},
			{Name: "segmented RS", Bits: p.seg.StorageBits()},
			{Name: "unfiltered history", Bits: 2048 * 16},
		},
	}
}

// ProbeState implements sim.StateProbe: per-table weight norms and
// clamp saturation (HistLen is the table's BF-GHR length), the BST's
// classification census, and the segmented recency stacks' fill.
func (p *Predictor) ProbeState() sim.TableStats {
	ts := sim.TableStats{Predictor: p.Name()}
	for i, tbl := range p.tables {
		name := "T" + strconv.Itoa(i)
		if i == 0 {
			name = "bias"
		}
		ts.Weights = append(ts.Weights, sim.WeightArrayStats(i, name, p.hists[i], tbl, p.wMin, p.wMax))
	}
	if tbl, ok := p.class.(*bst.Table); ok {
		counts := tbl.StateCounts()
		ts.Banks = append(ts.Banks, sim.BankStats{
			Bank:      0,
			Kind:      "bst",
			Entries:   tbl.Entries(),
			Live:      tbl.Entries() - counts[bst.NotFound],
			UsefulSet: counts[bst.NonBiased],
		})
	}
	for i := 0; i < p.seg.Segments(); i++ {
		ts.Recency = append(ts.Recency, sim.RecencyStats{
			Segment: i,
			Size:    p.seg.SegSize(),
			Live:    p.seg.SegmentLen(i),
			Depth:   p.cfg.SegBounds[i+1],
		})
	}
	return ts
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.Explainer        = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
