// Package strided implements a strided-sampling hashed perceptron in the
// spirit of Jiménez's CBP-4 entry (the paper's reference [26]): instead
// of correlating with every one of the most recent N branches, the
// predictor samples the global history at growing strides, expanding the
// effective reach of a fixed number of weight terms. It is the
// *competing* answer to the problem the Bias-Free predictor solves —
// deep reach on a budget — and therefore the most interesting
// head-to-head baseline for BF-Neural on long-correlation workloads:
// sampling reaches deep but only at fixed offsets, while bias-free
// filtering adapts the reach to where the non-biased branches actually
// are.
package strided

import (
	"bfbp/internal/history"
	"bfbp/internal/inflight"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
)

// Config parameterises the strided perceptron.
type Config struct {
	Name string
	// Offsets are the sampled history depths; if nil, DefaultOffsets()
	// is used.
	Offsets []int
	// TableRows is the power-of-two row count per term.
	TableRows int
	// BiasEntries is the power-of-two bias table size.
	BiasEntries int
	// AdaptiveTheta enables threshold fitting.
	AdaptiveTheta bool
}

// DefaultOffsets samples densely near the top of the history and at
// geometric strides out to 1024 branches: 48 terms reaching 16x deeper
// than a dense 48-branch history.
func DefaultOffsets() []int {
	var out []int
	for d := 1; d <= 16; d++ {
		out = append(out, d)
	}
	for d := 18; d <= 64; d += 4 {
		out = append(out, d)
	}
	for d := 80; d <= 1024; d += d / 4 {
		out = append(out, d)
	}
	if out[len(out)-1] < 1024 {
		out = append(out, 1024)
	}
	return out
}

// Default64KB is a ~64KB configuration.
func Default64KB() Config {
	return Config{
		Offsets:       DefaultOffsets(),
		TableRows:     1 << 10,
		BiasEntries:   1 << 12,
		AdaptiveTheta: true,
	}
}

// checkpoint is one prediction awaiting its update. Its idxs and dirs
// arrays are built once per ring slot and overwritten by each lookup.
type checkpoint struct {
	pc   uint64
	sum  int32
	idxs []int32 // flat weight index per sampled offset (-1 = unpopulated)
	dirs []bool
}

// Predictor is a strided-sampling hashed perceptron.
type Predictor struct {
	cfg      Config
	offsets  []int
	weights  []int8 // len(offsets) x TableRows
	bias     []int8
	rowMask  uint64
	biasMask uint64
	ring     *history.Ring
	theta    int32
	tc       int32
	// inflight holds the predictions awaiting their update, oldest
	// first; its free slot doubles as scratch for lookups that never go
	// in flight.
	inflight inflight.Ring[checkpoint]
}

// New returns a strided perceptron.
func New(cfg Config) *Predictor {
	if cfg.Offsets == nil {
		cfg.Offsets = DefaultOffsets()
	}
	if len(cfg.Offsets) == 0 {
		panic("strided: need at least one offset")
	}
	for i := 1; i < len(cfg.Offsets); i++ {
		if cfg.Offsets[i] <= cfg.Offsets[i-1] {
			panic("strided: offsets must be strictly increasing")
		}
	}
	if cfg.TableRows <= 0 || cfg.TableRows&(cfg.TableRows-1) != 0 {
		panic("strided: TableRows must be a positive power of two")
	}
	if cfg.BiasEntries <= 0 || cfg.BiasEntries&(cfg.BiasEntries-1) != 0 {
		panic("strided: BiasEntries must be a positive power of two")
	}
	p := &Predictor{
		cfg:      cfg,
		offsets:  cfg.Offsets,
		weights:  make([]int8, len(cfg.Offsets)*cfg.TableRows),
		bias:     make([]int8, cfg.BiasEntries),
		rowMask:  uint64(cfg.TableRows - 1),
		biasMask: uint64(cfg.BiasEntries - 1),
		theta:    int32(2.14*float64(len(cfg.Offsets)) + 20.58),
	}
	capacity := 1
	for capacity < cfg.Offsets[len(cfg.Offsets)-1]+2 {
		capacity <<= 1
	}
	p.ring = history.NewRing(capacity)
	n := len(cfg.Offsets)
	p.inflight = inflight.New(func() checkpoint {
		return checkpoint{idxs: make([]int32, n), dirs: make([]bool, n)}
	})
	return p
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string {
	if p.cfg.Name != "" {
		return p.cfg.Name
	}
	return "strided-perceptron"
}

// Reach returns the deepest sampled offset.
func (p *Predictor) Reach() int { return p.offsets[len(p.offsets)-1] }

// lookup fills the ring's free slot, keeping its arrays, with pc's
// weight indices, sampled directions and perceptron sum. The slot is not
// put in flight.
func (p *Predictor) lookup(pc uint64) *checkpoint {
	cp := p.inflight.Next()
	idxs, dirs := cp.idxs[:len(p.offsets)], cp.dirs[:len(p.offsets)]
	pch := rng.Hash64(pc >> 2)
	sum := int32(p.bias[(pc>>2)&p.biasMask])
	for i, off := range p.offsets {
		e, ok := p.ring.At(off)
		if !ok {
			idxs[i] = -1
			continue
		}
		row := rng.Hash64(pch^uint64(e.HashedPC)*0x9e3779b97f4a7c15^uint64(i)<<40) & p.rowMask
		idx := int32(i)*int32(p.cfg.TableRows) + int32(row)
		idxs[i] = idx
		dirs[i] = e.Taken
		w := int32(p.weights[idx])
		if e.Taken {
			sum += w
		} else {
			sum -= w
		}
	}
	cp.pc, cp.sum = pc, sum
	return cp
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
	mag := cp.sum
	if mag < 0 {
		mag = -mag
	}
	if pred != taken || mag <= p.theta {
		bi := (cp.pc >> 2) & p.biasMask
		p.bias[bi] = sat8(p.bias[bi], taken)
		for i, idx := range cp.idxs {
			if idx < 0 {
				continue
			}
			p.weights[idx] = sat8(p.weights[idx], taken == cp.dirs[i])
		}
		if p.cfg.AdaptiveTheta {
			p.adaptTheta(pred != taken, mag)
		}
	}
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

func sat8(w int8, up bool) int8 {
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

// Storage implements sim.StorageAccounter.
func (p *Predictor) Storage() sim.Breakdown {
	return sim.Breakdown{
		Name: p.Name(),
		Components: []sim.Component{
			{Name: "sampled weights (8-bit)", Bits: 8 * len(p.weights)},
			{Name: "bias weights (8-bit)", Bits: 8 * len(p.bias)},
			{Name: "history ring", Bits: p.ring.Cap() * 15},
		},
	}
}

// ProbeState implements sim.StateProbe: norms and clamp saturation of
// the sampled weight matrix (HistLen reports the deepest sampled
// offset) and the bias table.
func (p *Predictor) ProbeState() sim.TableStats {
	return sim.TableStats{
		Predictor: p.Name(),
		Weights: []sim.WeightStats{
			sim.WeightArrayStats(0, "weights", p.Reach(), p.weights, -128, 127),
			sim.WeightArrayStats(1, "bias", 0, p.bias, -128, 127),
		},
	}
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
