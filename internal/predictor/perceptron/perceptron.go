// Package perceptron implements a hashed, piecewise-linear-style neural
// branch predictor (Jiménez & Lin 2001; Jiménez 2005). It is the
// "conventional perceptron" baseline of the paper's Fig. 9 — a 72-branch
// unfiltered history within a 64KB budget — and its folded-history
// indexing switch (fhist, §IV-A) is one of the ablation steps of that
// figure.
//
// For every position i in the global history, the predictor selects a
// weight row by hashing the current PC with the address of the i-th most
// recent branch (and, when enabled, the folded outcome history of length
// i), then accumulates weight * outcome(i). The sign of the sum is the
// prediction; training is standard perceptron learning with an adaptive
// threshold (O-GEHL style).
package perceptron

import (
	"bfbp/internal/history"
	"bfbp/internal/inflight"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
)

// Config parameterises the predictor.
type Config struct {
	// Name overrides the reported predictor name.
	Name string
	// HistoryLength is the number of recent branches correlated with
	// (the paper's baseline uses 72).
	HistoryLength int
	// TableRows is the power-of-two row count of the correlating weight
	// table; each row holds HistoryLength int8 weights.
	TableRows int
	// BiasEntries is the power-of-two size of the bias weight table.
	BiasEntries int
	// FoldedHistory enables the fhist optimization of §IV-A: the hash
	// that selects a weight row additionally includes the folded global
	// outcome history between the correlated branch and the current one.
	FoldedHistory bool
	// FoldWidth is the bit width of the folded history (default 12).
	FoldWidth int
	// AdaptiveTheta enables dynamic training-threshold adjustment.
	AdaptiveTheta bool
}

// Default64KB is the Fig. 9 leftmost-bar configuration: a conventional
// perceptron with history length 72 sized for a 64KB budget, without
// folded-history indexing.
func Default64KB() Config {
	return Config{
		HistoryLength: 72,
		TableRows:     1 << 9, // 512 rows x 72 8-bit weights = 36KB
		BiasEntries:   1 << 13,
		FoldedHistory: false,
		AdaptiveTheta: true,
	}
}

// checkpoint is one prediction awaiting its update. Its rows and dirs
// arrays are built once per ring slot and overwritten by each lookup.
type checkpoint struct {
	pc   uint64
	sum  int32
	rows []uint32 // weight row per position (noRow = unpopulated)
	dirs []bool
}

// noRow marks a history position not yet populated.
const noRow = 0xFFFFFFFF

// Predictor is a hashed perceptron predictor.
type Predictor struct {
	cfg      Config
	weights  []int8 // TableRows x HistoryLength
	bias     []int8
	rowMask  uint64
	biasMask uint64

	ring  *history.Ring
	folds *history.FoldSet

	theta int32
	tc    int32 // adaptive threshold counter
	// inflight holds the predictions awaiting their update, oldest
	// first; its free slot doubles as scratch for lookups that never go
	// in flight.
	inflight inflight.Ring[checkpoint]
}

// New returns a predictor for the given configuration.
func New(cfg Config) *Predictor {
	if cfg.HistoryLength < 1 {
		panic("perceptron: HistoryLength must be >= 1")
	}
	if cfg.TableRows <= 0 || cfg.TableRows&(cfg.TableRows-1) != 0 {
		panic("perceptron: TableRows must be a positive power of two")
	}
	if cfg.BiasEntries <= 0 || cfg.BiasEntries&(cfg.BiasEntries-1) != 0 {
		panic("perceptron: BiasEntries must be a positive power of two")
	}
	if cfg.FoldWidth == 0 {
		cfg.FoldWidth = 12
	}
	p := &Predictor{
		cfg:      cfg,
		weights:  make([]int8, cfg.TableRows*cfg.HistoryLength),
		bias:     make([]int8, cfg.BiasEntries),
		rowMask:  uint64(cfg.TableRows - 1),
		biasMask: uint64(cfg.BiasEntries - 1),
		theta:    int32(2.14*float64(cfg.HistoryLength) + 20.58),
	}
	ringCap := 1
	for ringCap < cfg.HistoryLength+2 {
		ringCap <<= 1
	}
	if cfg.FoldedHistory {
		// One fold per quantized length; per-position folds are
		// quantized to these lengths, which a hardware design would do
		// with a fixed bank of fold registers.
		lengths := foldLengths(cfg.HistoryLength)
		p.folds = history.NewFoldSet(lengths, cfg.FoldWidth, ringCap)
		p.ring = p.folds.Ring()
	} else {
		p.ring = history.NewRing(ringCap)
	}
	h := cfg.HistoryLength
	p.inflight = inflight.New(func() checkpoint {
		return checkpoint{rows: make([]uint32, h), dirs: make([]bool, h)}
	})
	return p
}

// foldLengths returns a dense-then-geometric set of fold lengths covering
// [1, h].
func foldLengths(h int) []int {
	var out []int
	for l := 1; l <= h; {
		out = append(out, l)
		switch {
		case l < 8:
			l++
		case l < 32:
			l += 4
		default:
			l += l / 4
		}
	}
	if out[len(out)-1] < h {
		out = append(out, h)
	}
	return out
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string {
	if p.cfg.Name != "" {
		return p.cfg.Name
	}
	if p.cfg.FoldedHistory {
		return "perceptron+fhist"
	}
	return "perceptron"
}

// lookup fills the ring's free slot, keeping its arrays, with pc's
// weight rows, history directions and perceptron sum. The slot is not
// put in flight.
func (p *Predictor) lookup(pc uint64) *checkpoint {
	h := p.cfg.HistoryLength
	cp := p.inflight.Next()
	rows, dirs := cp.rows[:h], cp.dirs[:h]
	sum := int32(p.bias[(pc>>2)&p.biasMask])
	pch := rng.Hash64(pc >> 2)
	for i := 1; i <= h; i++ {
		e, ok := p.ring.At(i)
		if !ok {
			rows[i-1] = noRow
			continue
		}
		key := pch ^ uint64(e.HashedPC)*0x9e3779b97f4a7c15 ^ uint64(i)<<40
		if p.cfg.FoldedHistory {
			key ^= p.folds.Fold(i) << 17
		}
		row := uint32(rng.Hash64(key) & p.rowMask)
		rows[i-1] = row
		dirs[i-1] = e.Taken
		w := int32(p.weights[int(row)*h+(i-1)])
		if e.Taken {
			sum += w
		} else {
			sum -= w
		}
	}
	cp.pc, cp.sum = pc, sum
	return cp
}

// Predict implements sim.Predictor. It records a checkpoint of the rows
// and directions used so that training applies to exactly the state that
// produced the prediction, even under delayed update.
func (p *Predictor) Predict(pc uint64) bool {
	cp := p.lookup(pc)
	p.inflight.Push()
	return cp.sum >= 0
}

// Update implements sim.Predictor. An update whose PC does not match the
// oldest checkpoint (a caller that skipped Predict) trains from a fresh
// lookup instead.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	if p.inflight.Len() > 0 && p.inflight.At(0).pc == pc {
		p.train(p.inflight.At(0), taken)
		p.inflight.Pop()
	} else {
		p.train(p.lookup(pc), taken)
	}
	p.pushHistory(pc, taken)
}

func (p *Predictor) train(cp *checkpoint, taken bool) {
	pred := cp.sum >= 0
	mispred := pred != taken
	mag := cp.sum
	if mag < 0 {
		mag = -mag
	}
	if !mispred && mag > p.theta {
		return
	}
	h := p.cfg.HistoryLength
	bi := (cp.pc >> 2) & p.biasMask
	p.bias[bi] = satUpdate(p.bias[bi], taken)
	for i := 0; i < h; i++ {
		row := cp.rows[i]
		if row == noRow {
			continue
		}
		idx := int(row)*h + i
		p.weights[idx] = satUpdate(p.weights[idx], taken == cp.dirs[i])
	}
	if p.cfg.AdaptiveTheta {
		p.adaptTheta(mispred, mag)
	}
}

// adaptTheta implements Seznec's dynamic threshold fitting: sustained
// mispredictions grow theta, sustained low-confidence correct predictions
// shrink it.
func (p *Predictor) adaptTheta(mispred bool, mag int32) {
	if mispred {
		p.tc++
		if p.tc >= 64 {
			p.theta++
			p.tc = 0
		}
	} else if mag <= p.theta {
		p.tc--
		if p.tc <= -64 {
			if p.theta > 1 {
				p.theta--
			}
			p.tc = 0
		}
	}
}

func (p *Predictor) pushHistory(pc uint64, taken bool) {
	e := history.Entry{HashedPC: uint32(rng.Hash64(pc >> 2)), Taken: taken}
	if p.folds != nil {
		p.folds.Push(e)
	} else {
		p.ring.Push(e)
	}
}

func satUpdate(w int8, up bool) int8 {
	if up {
		if w < 127 {
			return w + 1
		}
		return w
	}
	if w > -128 {
		return w - 1
	}
	return w
}

// Theta exposes the current training threshold (for tests).
func (p *Predictor) Theta() int32 { return p.theta }

// explainTopWeights is the number of contributions Explain reports.
const explainTopWeights = 8

// Explain implements sim.Explainer: the perceptron sum against the
// current training threshold, plus the largest-magnitude signed weight
// contributions (position 0 is the bias weight, position i the i-th most
// recent branch).
func (p *Predictor) Explain(pc uint64) sim.Provenance {
	cp := p.inflight.Last(func(q *checkpoint) bool { return q.pc == pc })
	if cp == nil {
		cp = p.lookup(pc)
	}
	h := p.cfg.HistoryLength
	ws := make([]sim.WeightContrib, 0, h+1)
	ws = append(ws, sim.WeightContrib{Position: 0, Weight: int32(p.bias[(pc>>2)&p.biasMask])})
	for i := 0; i < h; i++ {
		row := cp.rows[i]
		if row == noRow {
			continue
		}
		w := int32(p.weights[int(row)*h+i])
		if !cp.dirs[i] {
			w = -w
		}
		ws = append(ws, sim.WeightContrib{Position: i + 1, Weight: w})
	}
	mag := cp.sum
	if mag < 0 {
		mag = -mag
	}
	return sim.Provenance{
		Predictor:  p.Name(),
		Component:  "perceptron",
		Prediction: cp.sum >= 0,
		Confidence: mag,
		Threshold:  p.theta,
		TopWeights: sim.TopWeightContribs(ws, explainTopWeights),
	}
}

// Storage implements sim.StorageAccounter.
func (p *Predictor) Storage() sim.Breakdown {
	comps := []sim.Component{
		{Name: "correlating weights (8-bit)", Bits: 8 * len(p.weights)},
		{Name: "bias weights (8-bit)", Bits: 8 * len(p.bias)},
		{Name: "global history ring", Bits: p.ring.Cap() * 15},
	}
	if p.cfg.FoldedHistory {
		comps = append(comps, sim.Component{
			Name: "folded history registers",
			Bits: len(foldLengths(p.cfg.HistoryLength)) * p.cfg.FoldWidth,
		})
	}
	return sim.Breakdown{Name: p.Name(), Components: comps}
}

// ProbeState implements sim.StateProbe: norms and clamp saturation of
// the correlating weight matrix and the bias table.
func (p *Predictor) ProbeState() sim.TableStats {
	return sim.TableStats{
		Predictor: p.Name(),
		Weights: []sim.WeightStats{
			sim.WeightArrayStats(0, "weights", p.cfg.HistoryLength, p.weights, -128, 127),
			sim.WeightArrayStats(1, "bias", 0, p.bias, -128, 127),
		},
	}
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.Explainer        = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
