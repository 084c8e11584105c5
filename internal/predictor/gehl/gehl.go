// Package gehl implements the O-GEHL predictor (Seznec, ISCA 2005):
// several weight tables indexed by hash functions over geometrically
// increasing global history lengths, summed and thresholded. The paper
// builds directly on O-GEHL's geometric series (§V-A cites it as the
// origin of TAGE's history lengths), and it completes the neural-family
// baselines: unlike the perceptron it has one weight per (table, context)
// rather than per (row, position), and unlike TAGE it sums rather than
// tag-matches.
//
// The adder-tree engine takes its per-table folds from a History: New
// uses the conventional fold set over the raw outcome ring, and bfgehl
// the bias-free global history register.
package gehl

import (
	"strconv"

	"bfbp/internal/history"
	"bfbp/internal/inflight"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

// Config parameterises an O-GEHL predictor.
type Config struct {
	// Tables is the number of weight tables (first is bias/PC-only).
	Tables int
	// LogEntries is log2 of each table's entry count.
	LogEntries int
	// MinHist and MaxHist bound the conventional history's geometric
	// series for tables 1..Tables-1.
	MinHist, MaxHist int
	// CounterBits is the weight width (classic O-GEHL uses 4-5 bits).
	CounterBits int
}

// Default64KB is an 8-table O-GEHL at roughly a 64KB budget.
func Default64KB() Config {
	return Config{
		Tables:      8,
		LogEntries:  13, // 8 x 8K x 5-bit = 40KB
		MinHist:     2,
		MaxHist:     200,
		CounterBits: 5,
	}
}

// History is the global history the engine's tables 1..Tables-1 are
// indexed by, the one part in which O-GEHL and BF-GEHL differ. The
// engine calls Folds once per lookup and Commit once per update.
type History interface {
	// Lengths returns the history length of each of tables 1..Tables-1.
	Lengths() []int
	// Folds writes each of those tables' history fold, in table order.
	Folds(dst []uint64)
	// Commit records a resolved branch.
	Commit(pc uint64, taken bool)
	// BiasState is pc's bias classification, "" for a history that does
	// not filter.
	BiasState(pc uint64) string
	// Storage returns the history's storage lines.
	Storage() []sim.Component
	// Probe appends the history's own banks and recency stacks to ts.
	Probe(ts *sim.TableStats)
	// HashConfig folds the history's geometry into the config hash.
	HashConfig(h *state.Hash)
	// SaveState writes the history's sections.
	SaveState(s *state.Snapshot) error
	// LoadState decodes the history's sections, recording failures on
	// s. The predictor runs commit, which installs what it decoded, only
	// once s.Err returns nil.
	LoadState(s *state.Snapshot) (commit func())
}

// Org names a GEHL organisation.
type Org struct {
	// Kind seeds the snapshot config hash ("gehl", "bfgehl").
	Kind string
	// Name is the reported predictor name.
	Name string
}

// checkpoint is one prediction awaiting its update. Its idxs array is
// built once per ring slot and overwritten by each lookup.
type checkpoint struct {
	pc   uint64
	sum  int32
	idxs []uint32 // per-table weight index
}

// Predictor is a GEHL adder-tree engine over a History.
type Predictor struct {
	cfg    Config
	org    Org
	hist   History
	tables [][]int8
	mask   uint64
	hists  []int    // per-table history length (0 for table 0)
	folds  []uint64 // Folds scratch
	wMax   int8
	wMin   int8
	theta  int32
	tc     int32
	// inflight holds the predictions awaiting their update, oldest
	// first; its free slot doubles as scratch for lookups that never go
	// in flight.
	inflight inflight.Ring[checkpoint]
}

// New returns an O-GEHL predictor for cfg.
func New(cfg Config) *Predictor {
	return NewWithHistory(cfg, Org{Kind: "gehl", Name: "o-gehl"}, newFoldSet)
}

// NewWithHistory returns a GEHL engine for cfg named by org, indexed by
// the history newHist builds for the validated cfg.
func NewWithHistory(cfg Config, org Org, newHist func(Config) History) *Predictor {
	if cfg.Tables < 2 {
		panic("gehl: need at least two tables")
	}
	if cfg.LogEntries < 4 || cfg.LogEntries > 22 {
		panic("gehl: LogEntries out of range")
	}
	if cfg.CounterBits < 2 || cfg.CounterBits > 8 {
		panic("gehl: CounterBits out of range")
	}
	p := &Predictor{
		cfg:   cfg,
		org:   org,
		mask:  uint64(1<<cfg.LogEntries - 1),
		folds: make([]uint64, cfg.Tables-1),
		wMax:  int8(1<<(cfg.CounterBits-1) - 1),
		wMin:  int8(-(1 << (cfg.CounterBits - 1))),
		theta: int32(cfg.Tables),
	}
	p.tables = make([][]int8, cfg.Tables)
	for i := range p.tables {
		p.tables[i] = make([]int8, 1<<cfg.LogEntries)
	}
	p.hist = newHist(cfg)
	p.hists = append([]int{0}, p.hist.Lengths()...)
	if len(p.hists) != cfg.Tables {
		panic("gehl: history lengths do not match the table count")
	}
	p.inflight = inflight.New(func() checkpoint {
		return checkpoint{idxs: make([]uint32, cfg.Tables)}
	})
	return p
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string { return p.org.Name }

// lookup fills the ring's free slot, keeping its array, with pc's
// per-table indices and adder-tree sum. The slot is not put in flight.
func (p *Predictor) lookup(pc uint64) *checkpoint {
	cp := p.inflight.Next()
	p.hist.Folds(p.folds)
	pch := rng.Hash64(pc >> 2)
	var sum int32
	for i := range p.tables {
		key := pch
		if i > 0 {
			key ^= p.folds[i-1]<<3 ^ uint64(i)<<57
		}
		idx := uint32(rng.Hash64(key) & p.mask)
		cp.idxs[i] = idx
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
	p.hist.Commit(pc, taken)
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
		p.adaptTheta(pred != taken, mag)
	}
}

// adaptTheta fits the training threshold dynamically (O-GEHL's
// threshold fitting).
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

// Explain implements sim.Explainer: the adder-tree sum against theta,
// with one signed 2w+1 contribution per table (Position is the table
// index; table 0 is the PC-only bias table), and the branch's bias
// classification when the history filters. The bias-free history gates
// history insertion, not prediction, so FilterDecision stays false.
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
		BiasState:  p.hist.BiasState(pc),
	}
}

// Storage implements sim.StorageAccounter.
func (p *Predictor) Storage() sim.Breakdown {
	return sim.Breakdown{
		Name: p.Name(),
		Components: append([]sim.Component{
			{Name: "weight tables", Bits: p.cfg.Tables * p.cfg.CounterBits << uint(p.cfg.LogEntries)},
		}, p.hist.Storage()...),
	}
}

// ProbeState implements sim.StateProbe: per-table weight norms and
// clamp saturation (table 0 is the PC-only bias table), then the
// history's own state.
func (p *Predictor) ProbeState() sim.TableStats {
	ts := sim.TableStats{Predictor: p.Name()}
	for i, tbl := range p.tables {
		name := "T" + strconv.Itoa(i)
		if i == 0 {
			name = "bias"
		}
		ts.Weights = append(ts.Weights, sim.WeightArrayStats(i, name, p.hists[i], tbl, p.wMin, p.wMax))
	}
	p.hist.Probe(&ts)
	return ts
}

// foldSet is the conventional O-GEHL history: a fold set over the raw
// outcome ring, one register per table at a geometric length.
type foldSet struct {
	*history.FoldSet
	cfg Config
}

func newFoldSet(cfg Config) History {
	if cfg.MinHist < 1 || cfg.MaxHist <= cfg.MinHist {
		panic("gehl: invalid history range")
	}
	series := history.GeometricRange(cfg.MinHist, cfg.MaxHist, cfg.Tables-1)
	return &foldSet{FoldSet: history.NewFoldSet(history.FoldRegs(series, cfg.LogEntries), cfg.MaxHist), cfg: cfg}
}

func (h *foldSet) Folds(dst []uint64) {
	for i := range dst {
		dst[i] = h.FoldExact(i)
	}
}

func (h *foldSet) Commit(pc uint64, taken bool) {
	h.Push(history.Entry{HashedPC: uint32(rng.Hash64(pc >> 2)), Taken: taken})
}

func (h *foldSet) BiasState(uint64) string { return "" }

func (h *foldSet) Storage() []sim.Component {
	return []sim.Component{
		{Name: "folded histories", Bits: (h.cfg.Tables - 1) * h.cfg.LogEntries},
		{Name: "history ring", Bits: h.cfg.MaxHist + 2},
	}
}

func (h *foldSet) Probe(*sim.TableStats) {}

func (h *foldSet) HashConfig(hs *state.Hash) {
	hs.Int(h.cfg.MinHist)
	hs.Int(h.cfg.MaxHist)
}

func (h *foldSet) SaveState(s *state.Snapshot) error {
	h.FoldSet.SaveState(s.Section("history"))
	return nil
}

func (h *foldSet) LoadState(s *state.Snapshot) func() {
	fresh := newFoldSet(h.cfg).(*foldSet)
	fresh.FoldSet.LoadState(s.Dec("history"))
	return func() { *h = *fresh }
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.Explainer        = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
