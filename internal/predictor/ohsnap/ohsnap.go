// Package ohsnap implements an optimized scaled neural predictor in the
// style of OH-SNAP (Jiménez, ICCD 2011), the most accurate neural
// predictor in the CBP-3 ranking and the paper's primary neural baseline
// (§VI-A). It extends a piecewise-linear predictor with:
//
//   - ragged weight tables: recent history positions, which carry more
//     correlation, get larger tables than distant ones;
//   - per-position scaling coefficients applied to each weight before
//     summation, seeded with an inverse-linear decay and adapted
//     dynamically as the program runs (the "dynamic weight adaptation" the
//     paper cites); and
//   - an adaptive training threshold.
//
// Like all neural predictors with unfiltered histories, its reach is
// bounded by its history length — the weakness the Bias-Free predictor
// attacks.
package ohsnap

import (
	"strconv"

	"bfbp/internal/dotp"
	"bfbp/internal/history"
	"bfbp/internal/inflight"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
)

// Segment sizes one ragged block of history positions.
type Segment struct {
	// Positions is the number of consecutive history positions in this
	// block.
	Positions int
	// Rows is the power-of-two table row count for these positions.
	Rows int
}

// Config parameterises the predictor.
type Config struct {
	// Segments define the ragged geometry from most-recent history
	// outward; total history length is the sum of Positions.
	Segments []Segment
	// BiasEntries is the power-of-two bias table size.
	BiasEntries int
}

// Default64KB approximates the 64KB OH-SNAP configuration: 128 positions
// of history with ragged tables (16KB + 24KB + 16KB) plus bias weights.
func Default64KB() Config {
	return Config{
		Segments: []Segment{
			{Positions: 16, Rows: 1 << 10},
			{Positions: 48, Rows: 1 << 9},
			{Positions: 64, Rows: 1 << 8},
		},
		BiasEntries: 1 << 12,
	}
}

const (
	coeffShift = 7 // contributions are (weight * coeff) >> coeffShift
	coeffInit  = 1 << coeffShift
	coeffMin   = 24
	coeffMax   = 480
	// The adaptive threshold's counter counts mispredictions up and
	// low-confidence correct predictions down; at ±thetaPeriod it moves
	// the threshold by one, never below thetaFloor, and restarts at 0.
	thetaPeriod = 64
	thetaFloor  = 1
)

// checkpoint is one prediction awaiting its update. Its idxs and dirs
// arrays are built once per ring slot and overwritten by each lookup;
// only the first n, the positions the history had populated, are live.
type checkpoint struct {
	pc   uint64
	sum  int32
	n    int
	idxs []int32 // flat weight index per position
	dirs []bool
}

// segTable is one ragged segment's block of the flat weight array:
// positions [start, end) each own rows consecutive weights, the first
// at base.
type segTable struct {
	start, end int
	base, rows int32
	mask       uint64
}

// Predictor is an OH-SNAP-style scaled neural predictor.
type Predictor struct {
	cfg      Config
	hlen     int
	segs     []segTable
	weights  []int8
	bias     []int8
	biasMask uint64
	coeff    []int32

	ring  *history.Ring
	theta int32
	tc    int32
	// inflight holds the predictions awaiting their update, oldest
	// first; its free slot doubles as scratch for lookups that never go
	// in flight.
	inflight inflight.Ring[checkpoint]
}

// New returns a predictor for the given configuration.
func New(cfg Config) *Predictor {
	if len(cfg.Segments) == 0 {
		panic("ohsnap: need at least one segment")
	}
	if cfg.BiasEntries <= 0 || cfg.BiasEntries&(cfg.BiasEntries-1) != 0 {
		panic("ohsnap: BiasEntries must be a positive power of two")
	}
	p := &Predictor{cfg: cfg, biasMask: uint64(cfg.BiasEntries - 1)}
	total := int32(0)
	pos := 0
	for _, s := range cfg.Segments {
		if s.Positions < 1 {
			panic("ohsnap: segment Positions must be >= 1")
		}
		if s.Rows <= 0 || s.Rows&(s.Rows-1) != 0 {
			panic("ohsnap: segment Rows must be a positive power of two")
		}
		p.segs = append(p.segs, segTable{
			start: pos, end: pos + s.Positions,
			base: total, rows: int32(s.Rows), mask: uint64(s.Rows - 1),
		})
		total += int32(s.Rows * s.Positions)
		pos += s.Positions
	}
	p.hlen = pos
	p.weights = make([]int8, total)
	p.bias = make([]int8, cfg.BiasEntries)
	p.coeff = make([]int32, p.hlen)
	for i := range p.coeff {
		// Inverse-linear decay: recent positions count fully, distant
		// ones are discounted, matching the analog-summation scaling of
		// SNAP-class predictors.
		p.coeff[i] = int32(coeffInit * 8 / (8 + i/4))
		if p.coeff[i] < coeffMin {
			p.coeff[i] = coeffMin
		}
	}
	p.ring = history.NewRingFor(p.hlen)
	p.theta = int32(2.14*float64(p.hlen) + 20.58)
	p.inflight = inflight.New(func() checkpoint {
		return checkpoint{idxs: make([]int32, pos), dirs: make([]bool, pos)}
	})
	return p
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string { return "oh-snap" }

// lookup fills the ring's free slot, keeping its arrays, with pc's
// weight indices, history directions and scaled sum. The slot is not put
// in flight. An index pass hashes each populated position, one loop per
// ragged segment over the history read in place; the scaled gather
// kernel then reduces the indices it wrote.
func (p *Predictor) lookup(pc uint64) *checkpoint {
	cp := p.inflight.Next()
	win := p.ring.Window(p.hlen)
	n := win.N
	idxs, dirs := cp.idxs[:n], cp.dirs[:n]
	pch := rng.Hash64(pc >> 2)
	for _, s := range p.segs {
		base, end := s.base, min(s.end, n)
		for i := s.start; i < end; i++ {
			idxs[i] = base + int32(rng.Hash64(pch^uint64(win.PC(i))<<1)&s.mask)
			dirs[i] = win.Taken(i)
			base += s.rows
		}
	}
	cp.pc, cp.n = pc, n
	cp.sum = p.biasTerm(pc) + dotp.ScaledGatherSum(p.weights, idxs, dirs, p.coeff, coeffShift)
	return cp
}

// biasTerm is pc's bias weight at the initial coefficient, the first
// term of every sum.
func (p *Predictor) biasTerm(pc uint64) int32 {
	return dotp.ScaledTerm(p.bias[(pc>>2)&p.biasMask], coeffInit, coeffShift, true)
}

// Predict implements sim.Predictor.
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
	p.ring.Push(history.Entry{HashedPC: uint32(rng.Hash64(pc >> 2)), Taken: taken})
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
	bi := (cp.pc >> 2) & p.biasMask
	p.bias[bi] = satUpdate(p.bias[bi], taken)
	idxs, dirs := cp.idxs[:cp.n], cp.dirs[:cp.n]
	coeff := p.coeff[:len(idxs)]
	for i, idx := range idxs {
		// Branch-free on the unpredictable agreement: step the weight
		// toward it, saturating at the int8 clamps.
		agree := taken == dirs[i]
		w := min(max(int32(p.weights[idx])+2*b2i(agree)-1, -128), 127)
		p.weights[idx] = int8(w)
		// Dynamic coefficient adaptation: a position whose stored
		// weight confidently (|w| > 8) pointed toward the actual outcome
		// gains influence; one that pointed away loses it. The
		// contribution sign is sign(w) when the history bit was taken
		// and -sign(w) otherwise, so it was correct exactly when
		// (w > 0) == agree. Coefficients always lie in [coeffMin,
		// coeffMax], so clamping the step is the saturating update.
		step := b2i(w > 8 || w < -8) * (2*b2i((w > 0) == agree) - 1)
		coeff[i] = min(max(coeff[i]+step, coeffMin), coeffMax)
	}
	// Adaptive threshold.
	if mispred {
		p.tc++
		if p.tc >= thetaPeriod {
			p.theta++
			p.tc = 0
		}
	} else if mag <= p.theta {
		p.tc--
		if p.tc <= -thetaPeriod {
			if p.theta > thetaFloor {
				p.theta--
			}
			p.tc = 0
		}
	}
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
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

// explainTopWeights is the number of contributions Explain reports.
const explainTopWeights = 8

// Explain implements sim.Explainer: the scaled adder-tree sum against
// theta, with the largest signed scaled contributions (position 0 is the
// bias weight, position i the i-th most recent branch; each contribution
// is the coefficient-scaled weight the sum actually used).
func (p *Predictor) Explain(pc uint64) sim.Provenance {
	cp := p.inflight.Last(func(q *checkpoint) bool { return q.pc == pc })
	if cp == nil {
		cp = p.lookup(pc)
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
		TopWeights: sim.TopWeightContribs(p.contribs(cp), explainTopWeights),
	}
}

// contribs lists every term of cp's sum, in the order lookup adds them:
// the bias weight as position 0, then each populated position i+1.
func (p *Predictor) contribs(cp *checkpoint) []sim.WeightContrib {
	ws := make([]sim.WeightContrib, 0, cp.n+1)
	ws = append(ws, sim.WeightContrib{Position: 0, Weight: p.biasTerm(cp.pc)})
	for i, idx := range cp.idxs[:cp.n] {
		ws = append(ws, sim.WeightContrib{
			Position: i + 1,
			Weight:   dotp.ScaledTerm(p.weights[idx], p.coeff[i], coeffShift, cp.dirs[i]),
		})
	}
	return ws
}

// Storage implements sim.StorageAccounter.
func (p *Predictor) Storage() sim.Breakdown {
	return sim.Breakdown{
		Name: p.Name(),
		Components: []sim.Component{
			{Name: "ragged correlating weights", Bits: 8 * len(p.weights)},
			{Name: "bias weights", Bits: 8 * len(p.bias)},
			{Name: "scaling coefficients (9-bit)", Bits: 9 * len(p.coeff)},
			{Name: "global history ring", Bits: p.ring.Cap() * 15},
		},
	}
}

// ProbeState implements sim.StateProbe: one weight profile per ragged
// segment (HistLen reports the segment's deepest history position), the
// bias table, and the scaling coefficients (saturated = pinned at
// coeffMin or coeffMax, the dynamic-adaptation clamps).
func (p *Predictor) ProbeState() sim.TableStats {
	ts := sim.TableStats{Predictor: p.Name()}
	for s, seg := range p.segs {
		block := p.weights[seg.base : seg.base+seg.rows*int32(seg.end-seg.start)]
		ts.Weights = append(ts.Weights, sim.WeightArrayStats(
			s, "seg"+strconv.Itoa(s), seg.end, block, -128, 127))
	}
	ts.Weights = append(ts.Weights,
		sim.WeightArrayStats(len(p.cfg.Segments), "bias", 0, p.bias, -128, 127))
	cw := sim.WeightStats{
		Bank: len(p.cfg.Segments) + 1, Name: "coeff", Weights: len(p.coeff), Max: coeffMax,
	}
	for _, c := range p.coeff {
		if c != 0 {
			cw.Live++
		}
		if c == coeffMin || c == coeffMax {
			cw.Saturated++
		}
		if c < 0 {
			cw.L1 -= int64(c)
		} else {
			cw.L1 += int64(c)
		}
	}
	ts.Weights = append(ts.Weights, cw)
	return ts
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.Explainer        = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
