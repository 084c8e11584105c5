package perceptron

import (
	"fmt"
	"io"

	"bfbp/internal/bst"
	"bfbp/internal/dotp"
	"bfbp/internal/inflight"
	"bfbp/internal/looppred"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

// Source is the history that picks a neural predictor's weights, the
// one part in which the perceptron, strided and BF-Neural predictors
// differ. The engine calls Fill once per lookup and Commit once per
// update.
type Source interface {
	// Fill writes the flat indices into the correlating tables of the
	// weights pc's sum reads, with their history directions, into idx
	// and dirs (each Spec.MaxIndices long). It returns how many it
	// wrote; the first recent of them are history positions 1..recent,
	// the rest follow the first correlating table's positions.
	Fill(pc uint64, idx []int32, dirs []bool) (n, recent int)
	// Commit records a resolved branch, after the gate has seen it.
	Commit(pc uint64, taken bool)
	// Probe appends the history's own state to ts.
	Probe(ts *sim.TableStats)
	// Save writes the history's sections.
	Save(s *state.Snapshot)
	// Load decodes the history's sections into fresh state, recording
	// failures on s. The engine runs commit, which installs what it
	// decoded, only once s.Err returns nil.
	Load(s *state.Snapshot) (commit func())
}

// Tuning holds the constants in which the predictors on the engine
// train differently. Each constructor fixes them; none is
// configuration.
type Tuning struct {
	// WeightBits is the width of the correlating weights; bias weights
	// are always 8-bit.
	WeightBits int
	// Theta0 is the initial training threshold θ.
	Theta0 int32
	// ThetaPeriod is how many mispredictions, or low-confidence correct
	// predictions, in excess move θ by one.
	ThetaPeriod int32
	// ThetaFloor is the least θ falls to.
	ThetaFloor int32
	// TrainAtTheta trains a correct prediction whose |sum| equals θ.
	TrainAtTheta bool
}

// Table describes one weight table. A predictor lists its tables in
// report order: snapshot sections, probe rows and storage lines follow
// it.
type Table struct {
	// Name is the table's snapshot section and probe row.
	Name string
	// Label is the table's storage line.
	Label string
	// Entries is the number of weights.
	Entries int
	// HistLen is the history length the probe row reports.
	HistLen int
	// Bias marks the PC-indexed bias table. The others are the
	// correlating tables, laid out one after another in the flat
	// weight array the Source indexes.
	Bias bool
}

// Spec describes one predictor to the engine.
type Spec struct {
	// Name is the reported name.
	Name string
	// ConfigHash identifies the configuration in snapshots.
	ConfigHash uint64
	// Tables lists the weight tables; exactly one is the bias table.
	Tables []Table
	// Tuning fixes the training constants.
	Tuning Tuning
	// MaxIndices bounds the indices one Fill writes.
	MaxIndices int
	// Gate, when set, is the Branch Status Table (§IV-B1): a branch it
	// has not seen or holds as biased is predicted by it and left out
	// of the sum and of training.
	Gate bst.Classifier
	// Loop adds the 64-entry loop predictor (§IV-B2).
	Loop bool
	// Source picks the correlating weights.
	Source Source
	// HistoryStorage lists the storage lines of the Source's history.
	HistoryStorage []sim.Component
}

// table is a Table with its weights and clamp.
type table struct {
	Table
	w        []int8
	bits     int
	min, max int8
}

// checkpoint is one prediction awaiting its update. Its idx and dirs
// arrays are built once per ring slot and overwritten by each lookup.
type checkpoint struct {
	pc    uint64
	state bst.State
	sum   int32
	idx   []int32 // flat correlating-weight indices
	dirs  []bool
	// recent is how many of idx are history positions 1..recent.
	recent      int
	loopPred    bool
	loopOK      bool
	loopApplied bool
	pred        bool // the gate's or the sum's direction, before the loop
	final       bool
}

// Predictor is the neural engine: a bias table and correlating weight
// tables summed over the indices a Source picks, trained by
// perceptron learning with an adaptive threshold, optionally behind a
// BST gate and beside a loop predictor.
type Predictor struct {
	spec     Spec
	tables   []table
	bias     []int8
	w        []int8 // the correlating tables, flat
	biasMask uint64
	wMin     int8
	wMax     int8
	far      int // Explain position of the first index past the recent ones
	loop     *looppred.Predictor
	withLoop int32
	theta    int32
	tc       int32
	// inflight holds the predictions awaiting their update, oldest
	// first; its free slot doubles as scratch for lookups that never go
	// in flight.
	inflight inflight.Ring[checkpoint]
}

// NewEngine returns the engine spec describes.
func NewEngine(spec Spec) *Predictor {
	wb := spec.Tuning.WeightBits
	p := &Predictor{
		spec:  spec,
		wMin:  int8(-1 << (wb - 1)),
		wMax:  int8(1<<(wb-1) - 1),
		theta: spec.Tuning.Theta0,
	}
	corr := 0
	for _, t := range spec.Tables {
		if !t.Bias {
			corr += t.Entries
		}
	}
	p.w = make([]int8, corr)
	off := 0
	for _, t := range spec.Tables {
		if t.Bias {
			p.bias = make([]int8, t.Entries)
			p.biasMask = uint64(t.Entries - 1)
			p.tables = append(p.tables, table{Table: t, w: p.bias, bits: 8, min: -128, max: 127})
			continue
		}
		if p.far == 0 {
			p.far = t.HistLen + 1
		}
		w := p.w[off : off+t.Entries]
		off += t.Entries
		p.tables = append(p.tables, table{Table: t, w: w, bits: wb, min: p.wMin, max: p.wMax})
	}
	if spec.Loop {
		p.loop = looppred.NewDefault()
	}
	n := spec.MaxIndices
	p.inflight = inflight.New(func() checkpoint {
		return checkpoint{idx: make([]int32, 0, n), dirs: make([]bool, 0, n)}
	})
	return p
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string { return p.spec.Name }

// slot returns the ring's free slot reset, keeping its arrays, to a
// fresh checkpoint for pc in the gate's class (non-biased when
// ungated). The slot is not put in flight.
func (p *Predictor) slot(pc uint64) *checkpoint {
	cp := p.inflight.Next()
	st := bst.NonBiased
	if p.spec.Gate != nil {
		st = p.spec.Gate.Lookup(pc)
	}
	*cp = checkpoint{pc: pc, state: st, idx: cp.idx[:0], dirs: cp.dirs[:0]}
	return cp
}

// sum fills cp's indices from the source and sums the bias weight and
// the signed weights they select.
func (p *Predictor) sum(cp *checkpoint) {
	n, recent := p.spec.Source.Fill(cp.pc, cp.idx[:cap(cp.idx)], cp.dirs[:cap(cp.dirs)])
	cp.idx, cp.dirs, cp.recent = cp.idx[:n], cp.dirs[:n], recent
	cp.sum = int32(p.bias[(cp.pc>>2)&p.biasMask]) + dotp.SignedGatherSum(p.w, cp.idx, cp.dirs)
}

// decide sets cp's direction before the loop predictor (Algorithm 2):
// the gate's for a biased or unseen branch, the sign of the sum
// otherwise.
func (p *Predictor) decide(cp *checkpoint) {
	switch cp.state {
	case bst.NotFound, bst.NotTaken:
		cp.pred = false
	case bst.Taken:
		cp.pred = true
	default:
		p.sum(cp)
		cp.pred = cp.sum >= 0
	}
	cp.final = cp.pred
}

// Predict implements sim.Predictor. The checkpoint it leaves in flight
// holds the indices and directions that produced the prediction, so
// training applies to exactly that state even under delayed update.
func (p *Predictor) Predict(pc uint64) bool {
	cp := p.slot(pc)
	p.decide(cp)
	if p.loop != nil {
		lp, ok := p.loop.Predict(pc)
		cp.loopPred, cp.loopOK = lp, ok
		if ok && p.withLoop >= 0 {
			cp.final = lp
			cp.loopApplied = true
		}
	}
	p.inflight.Push()
	return cp.final
}

// Update implements sim.Predictor (Algorithm 3). An update whose PC
// does not match the oldest checkpoint (a caller that skipped Predict)
// commits from a fresh checkpoint instead, with the sum computed only
// for a non-biased branch.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	if p.inflight.Len() > 0 && p.inflight.At(0).pc == pc {
		p.commit(p.inflight.At(0), taken)
		p.inflight.Pop()
		return
	}
	cp := p.slot(pc)
	if cp.state == bst.NonBiased {
		p.sum(cp)
		cp.pred = cp.sum >= 0
	}
	p.commit(cp, taken)
}

// commit applies the resolved outcome for cp.pc.
func (p *Predictor) commit(cp *checkpoint, taken bool) {
	if p.loop != nil {
		switch {
		case !cp.loopOK || cp.loopPred == cp.pred:
		case cp.loopPred == taken:
			p.withLoop = min(p.withLoop+1, 63)
		default:
			p.withLoop = max(p.withLoop-1, -64)
		}
		p.loop.Update(cp.pc, taken, cp.pred != taken)
	}
	switch cp.state {
	case bst.NotFound:
		// First commit: the gate adopts the direction as the bias.
	case bst.Taken, bst.NotTaken:
		if cp.pred != taken {
			// The branch just revealed itself as non-biased; train the
			// weights so the sum picks it up immediately (Algorithm 3
			// updates Wb, Wm, Wrs on this transition).
			p.sum(cp)
			p.train(cp, taken)
		}
	default:
		mag := abs(cp.sum)
		if cp.pred != taken || mag < p.theta || p.spec.Tuning.TrainAtTheta && mag == p.theta {
			p.train(cp, taken)
			p.adaptTheta(cp.pred != taken)
		}
	}
	if p.spec.Gate != nil {
		p.spec.Gate.Update(cp.pc, taken)
	}
	p.spec.Source.Commit(cp.pc, taken)
}

// train moves the bias weight and every weight cp selected toward the
// outcome, each saturating at its table's clamp.
func (p *Predictor) train(cp *checkpoint, taken bool) {
	bi := (cp.pc >> 2) & p.biasMask
	p.bias[bi] = sat(p.bias[bi], taken, -128, 127)
	for i, idx := range cp.idx {
		p.w[idx] = sat(p.w[idx], taken == cp.dirs[i], p.wMin, p.wMax)
	}
}

// adaptTheta implements Seznec's dynamic threshold fitting for a
// training event: sustained mispredictions grow θ, sustained
// low-confidence correct predictions shrink it.
func (p *Predictor) adaptTheta(mispred bool) {
	period := p.spec.Tuning.ThetaPeriod
	if mispred {
		p.tc++
		if p.tc >= period {
			p.theta++
			p.tc = 0
		}
		return
	}
	p.tc--
	if p.tc <= -period {
		if p.theta > p.spec.Tuning.ThetaFloor {
			p.theta--
		}
		p.tc = 0
	}
}

func sat(w int8, up bool, lo, hi int8) int8 {
	if up && w < hi {
		return w + 1
	}
	if !up && w > lo {
		return w - 1
	}
	return w
}

func abs(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// explainTopWeights is the number of contributions Explain reports.
const explainTopWeights = 8

// Explain implements sim.Explainer. A gated engine reports the BST
// class, and its biased and unseen branches report "bias-filter" with
// FilterDecision set (the paper's biased-skip path). A summed branch
// reports the sum against θ with its strongest signed contributions:
// position 0 is the bias weight, 1..recent the history positions, and
// the rest follow the first correlating table's positions.
func (p *Predictor) Explain(pc uint64) sim.Provenance {
	cp := p.inflight.Last(func(q *checkpoint) bool { return q.pc == pc })
	if cp == nil {
		cp = p.slot(pc)
		p.decide(cp)
	}
	prov := sim.Provenance{Predictor: p.Name(), Prediction: cp.final}
	if p.spec.Gate != nil {
		prov.BiasState = cp.state.String()
	}
	switch {
	case cp.loopApplied:
		prov.Component = "loop"
		// The loop predictor only overrides at full confidence.
		prov.Confidence = 7
	case cp.state == bst.NonBiased:
		prov.Component = "perceptron"
		prov.Confidence = abs(cp.sum)
		prov.Threshold = p.theta
		ws := make([]sim.WeightContrib, 0, len(cp.idx)+1)
		ws = append(ws, sim.WeightContrib{Position: 0, Weight: int32(p.bias[(pc>>2)&p.biasMask])})
		for k, idx := range cp.idx {
			w := int32(p.w[idx])
			if !cp.dirs[k] {
				w = -w
			}
			pos := k + 1
			if k >= cp.recent {
				pos = p.far + k - cp.recent
			}
			ws = append(ws, sim.WeightContrib{Position: pos, Weight: w})
		}
		prov.TopWeights = sim.TopWeightContribs(ws, explainTopWeights)
	default:
		prov.Component = "bias-filter"
		prov.Confidence = 1
		prov.FilterDecision = true
	}
	return prov
}

// Storage implements sim.StorageAccounter: the BST, the weight tables
// in report order, the history, and the loop predictor.
func (p *Predictor) Storage() sim.Breakdown {
	b := sim.Breakdown{Name: p.Name()}
	if p.spec.Gate != nil {
		b.Components = append(b.Components, sim.Component{Name: "BST", Bits: p.spec.Gate.StorageBits()})
	}
	for _, t := range p.tables {
		b.Components = append(b.Components, sim.Component{Name: t.Label, Bits: t.bits * len(t.w)})
	}
	b.Components = append(b.Components, p.spec.HistoryStorage...)
	if p.loop != nil {
		b.Components = append(b.Components, sim.Component{Name: "loop predictor", Bits: p.loop.StorageBits()})
	}
	return b
}

// ProbeState implements sim.StateProbe: each weight table's norms and
// clamp saturation in report order, the BST's classification census,
// then the history's own state.
func (p *Predictor) ProbeState() sim.TableStats {
	ts := sim.TableStats{Predictor: p.Name()}
	for i, t := range p.tables {
		ts.Weights = append(ts.Weights, sim.WeightArrayStats(i, t.Name, t.HistLen, t.w, t.min, t.max))
	}
	bst.Probe(&ts, p.spec.Gate)
	p.spec.Source.Probe(&ts)
	return ts
}

// SaveState implements sim.Snapshotter (bfbp.state.v1): the BST, the
// weight tables, the history's sections, the loop chooser and adaptive
// threshold ("misc"), and the loop predictor. The in-flight ring is
// transient: snapshots are taken at quiescent points.
func (p *Predictor) SaveState(w io.Writer) error {
	if p.inflight.Len() != 0 {
		return fmt.Errorf("%s: cannot snapshot with in-flight predictions", p.Name())
	}
	s := state.New(p.Name(), p.spec.ConfigHash)
	if p.spec.Gate != nil {
		if err := bst.SaveClassifier(s.Section("bst"), p.spec.Gate); err != nil {
			return err
		}
	}
	for _, t := range p.tables {
		s.Section(t.Name).I8s(t.w)
	}
	p.spec.Source.Save(s)
	// A gated engine's misc section leads with the loop chooser, loop
	// predictor or not.
	m := s.Section("misc")
	if p.spec.Gate != nil {
		m.I32(p.withLoop)
	}
	m.I32(p.theta)
	m.I32(p.tc)
	if p.loop != nil {
		p.loop.SaveState(s.Section("loop"))
	}
	_, err := s.WriteTo(w)
	return err
}

// LoadState implements sim.Snapshotter. Every section is read, each
// weight checked against its table's clamp, before the one Snapshot.Err
// check; only then is anything installed, so a failed load changes
// nothing.
func (p *Predictor) LoadState(r io.Reader) error {
	s, err := state.Load(r, p.Name(), p.spec.ConfigHash)
	if err != nil {
		return err
	}
	fresh := make([][]int8, len(p.tables))
	for i, t := range p.tables {
		d := s.Dec(t.Name)
		fresh[i] = d.I8s(len(t.w))
		for _, v := range fresh[i] {
			if v < t.min || v > t.max {
				d.Corruptf("weight %d outside [%d, %d]", v, t.min, t.max)
			}
		}
	}
	m := s.Dec("misc")
	var withLoop int32
	if p.spec.Gate != nil {
		if withLoop = m.I32(); withLoop < -64 || withLoop > 63 {
			m.Corruptf("loop chooser %d outside [-64, 63]", withLoop)
		}
	}
	theta, tc := m.I32(), m.I32()
	if tun := p.spec.Tuning; theta < tun.ThetaFloor || tc <= -tun.ThetaPeriod || tc >= tun.ThetaPeriod {
		m.Corruptf("threshold %d below %d or its counter %d outside (-%d, %d)", theta, tun.ThetaFloor, tc, tun.ThetaPeriod, tun.ThetaPeriod)
	}
	commitSrc := p.spec.Source.Load(s)
	var loop *looppred.Predictor
	if p.loop != nil {
		loop = looppred.NewDefault()
		loop.LoadState(s.Dec("loop"))
	}
	installGate := func() {}
	if p.spec.Gate != nil {
		installGate = bst.LoadClassifier(s.Dec("bst"), p.spec.Gate)
	}
	if err := s.Err(); err != nil {
		return err
	}
	for i, t := range p.tables {
		copy(t.w, fresh[i])
	}
	installGate()
	commitSrc()
	p.loop = loop
	p.withLoop, p.theta, p.tc = withLoop, theta, tc
	p.inflight.Reset()
	return nil
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.Explainer        = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
	_ sim.Snapshotter      = (*Predictor)(nil)
)
