// Package gehl implements the O-GEHL predictor (Seznec, ISCA 2005):
// several weight tables indexed by hash functions over geometrically
// increasing global history lengths, summed and thresholded. The paper
// builds directly on O-GEHL's geometric series (§V-A cites it as the
// origin of TAGE's history lengths), and it completes the neural-family
// baselines: unlike the perceptron it has one weight per (table, context)
// rather than per (row, position), and unlike TAGE it sums rather than
// tag-matches.
package gehl

import (
	"strconv"

	"bfbp/internal/history"
	"bfbp/internal/inflight"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
)

// Config parameterises an O-GEHL predictor.
type Config struct {
	// Name overrides the reported name.
	Name string
	// Tables is the number of weight tables (first is bias/PC-only).
	Tables int
	// LogEntries is log2 of each table's entry count.
	LogEntries int
	// MinHist and MaxHist bound the geometric history series for tables
	// 1..Tables-1.
	MinHist, MaxHist int
	// CounterBits is the weight width (classic O-GEHL uses 4-5 bits).
	CounterBits int
	// AdaptiveTheta enables dynamic threshold fitting.
	AdaptiveTheta bool
}

// Default64KB is an 8-table O-GEHL at roughly a 64KB budget.
func Default64KB() Config {
	return Config{
		Tables:        8,
		LogEntries:    13, // 8 x 8K x 5-bit = 40KB
		MinHist:       2,
		MaxHist:       200,
		CounterBits:   5,
		AdaptiveTheta: true,
	}
}

// checkpoint is one prediction awaiting its update. Its idxs array is
// built once per ring slot and overwritten by each lookup.
type checkpoint struct {
	pc   uint64
	sum  int32
	idxs []uint32 // per-table weight index
}

// Predictor is an O-GEHL predictor.
type Predictor struct {
	cfg    Config
	tables [][]int8
	mask   uint64
	hists  []int // per-table history length (0 for table 0)
	folds  *history.FoldSet
	wMax   int8
	wMin   int8
	theta  int32
	tc     int32
	// inflight holds the predictions awaiting their update, oldest
	// first; its free slot doubles as scratch for lookups that never go
	// in flight.
	inflight inflight.Ring[checkpoint]
}

// New returns a predictor for cfg.
func New(cfg Config) *Predictor {
	if cfg.Tables < 2 {
		panic("gehl: need at least two tables")
	}
	if cfg.LogEntries < 4 || cfg.LogEntries > 22 {
		panic("gehl: LogEntries out of range")
	}
	if cfg.CounterBits < 2 || cfg.CounterBits > 8 {
		panic("gehl: CounterBits out of range")
	}
	if cfg.MinHist < 1 || cfg.MaxHist <= cfg.MinHist {
		panic("gehl: invalid history range")
	}
	p := &Predictor{
		cfg:   cfg,
		mask:  uint64(1<<cfg.LogEntries - 1),
		wMax:  int8(1<<(cfg.CounterBits-1) - 1),
		wMin:  int8(-(1 << (cfg.CounterBits - 1))),
		theta: int32(cfg.Tables),
	}
	p.tables = make([][]int8, cfg.Tables)
	for i := range p.tables {
		p.tables[i] = make([]int8, 1<<cfg.LogEntries)
	}
	series := history.GeometricRange(cfg.MinHist, cfg.MaxHist, cfg.Tables-1)
	p.hists = append([]int{0}, series...)
	capacity := 1
	for capacity < cfg.MaxHist+2 {
		capacity <<= 1
	}
	p.folds = history.NewFoldSet(series, cfg.LogEntries, capacity)
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
	return "o-gehl"
}

// Histories exposes the per-table history lengths.
func (p *Predictor) Histories() []int { return append([]int(nil), p.hists...) }

// lookup fills the ring's free slot, keeping its array, with pc's
// per-table indices and adder-tree sum. The slot is not put in flight.
func (p *Predictor) lookup(pc uint64) *checkpoint {
	cp := p.inflight.Next()
	idxs := cp.idxs[:len(p.tables)]
	pch := rng.Hash64(pc >> 2)
	var sum int32
	for i := range p.tables {
		var key uint64
		if i == 0 {
			key = pch
		} else {
			key = pch ^ p.folds.FoldExact(i-1)<<3 ^ uint64(i)<<57
		}
		idx := uint32(rng.Hash64(key) & p.mask)
		idxs[i] = idx
		// The "+ centered" read: counters are centered signed values;
		// the sum of 2w+1 terms avoids ties, per the O-GEHL paper.
		sum += 2*int32(p.tables[i][idx]) + 1
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
	p.folds.Push(history.Entry{HashedPC: uint32(rng.Hash64(pc >> 2)), Taken: taken})
}

func (p *Predictor) train(cp *checkpoint, taken bool) {
	pred := cp.sum >= 0
	mag := cp.sum
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

// Theta exposes the adaptive threshold (for tests).
func (p *Predictor) Theta() int32 { return p.theta }

// explainTopWeights is the number of contributions Explain reports.
const explainTopWeights = 8

// Explain implements sim.Explainer: the adder-tree sum against theta,
// with one signed 2w+1 contribution per table (Position is the table
// index; table 0 is the PC-only bias table).
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
	}
}

// Storage implements sim.StorageAccounter.
func (p *Predictor) Storage() sim.Breakdown {
	return sim.Breakdown{
		Name: p.Name(),
		Components: []sim.Component{
			{Name: "weight tables", Bits: p.cfg.Tables * p.cfg.CounterBits << uint(p.cfg.LogEntries)},
			{Name: "folded histories", Bits: (p.cfg.Tables - 1) * p.cfg.LogEntries},
			{Name: "history ring", Bits: p.cfg.MaxHist + 2},
		},
	}
}

// ProbeState implements sim.StateProbe: per-table weight norms and
// clamp saturation (table 0 is the PC-only bias table).
func (p *Predictor) ProbeState() sim.TableStats {
	ts := sim.TableStats{Predictor: p.Name()}
	for i, tbl := range p.tables {
		name := "T" + strconv.Itoa(i)
		if i == 0 {
			name = "bias"
		}
		ts.Weights = append(ts.Weights, sim.WeightArrayStats(i, name, p.hists[i], tbl, p.wMin, p.wMax))
	}
	return ts
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.Explainer        = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
