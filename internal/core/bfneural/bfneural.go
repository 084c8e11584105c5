// Package bfneural implements the Bias-Free Neural predictor of the paper
// (§IV, Algorithms 2 and 3): a neural predictor that
//
//   - classifies branches on the fly with a Branch Status Table (BST) and
//     predicts completely biased branches with their recorded direction,
//     excluding them from perceptron prediction and training;
//   - keeps a conventional perceptron component over the ht most recent
//     *unfiltered* history bits (the 2-D weight table Wm), which rescues
//     strongly biased-leaning branches during training (§IV-B2);
//   - keeps a recency stack (RS) of the most recent occurrence of each
//     non-biased branch, with its positional history (pos_hist), and
//     correlates through a one-dimensional weight table Wrs indexed by a
//     hash of the current PC, the stack entry's address, its quantized
//     distance, and the folded global history (§IV-A, §IV-B2); and
//   - optionally consults a loop-count predictor for constant-trip loops.
//
// The Mode switch reproduces the ablation of the paper's Fig. 9: filtering
// only the weight tables, filtering the history (without the recency
// stack), and the full recency-stack design.
package bfneural

import (
	"math/bits"

	"bfbp/internal/bst"
	"bfbp/internal/dotp"
	"bfbp/internal/history"
	"bfbp/internal/inflight"
	"bfbp/internal/looppred"
	"bfbp/internal/rng"
	"bfbp/internal/rs"
	"bfbp/internal/sim"
)

// Mode selects the history-filtering level (the Fig. 9 ablation).
type Mode int

const (
	// ModeFilterWeights gates prediction/training by the BST but leaves
	// the global history unfiltered ("BF-Neural (fhist)" in Fig. 9): the
	// perceptron runs over RecentUnfiltered history positions only.
	ModeFilterWeights Mode = iota
	// ModeBiasFreeGHR additionally filters biased branches out of the
	// global history register, but keeps every dynamic instance of
	// non-biased branches ("ghist bias-free + fhist").
	ModeBiasFreeGHR
	// ModeFull adds the recency stack: only the most recent occurrence
	// of each non-biased branch, with positional history ("ghist
	// bias-free + RS + fhist"). This is the BF-Neural predictor.
	ModeFull
)

// Config parameterises BF-Neural.
type Config struct {
	Name string
	// Mode selects the filtering level (default ModeFull).
	Mode Mode
	// BSTEntries is the Branch Status Table size (16384 in §VI-B).
	BSTEntries int
	// Classifier overrides the default 2-bit-FSM BST (e.g. a
	// probabilistic table or a static oracle, §VI-D).
	Classifier bst.Classifier
	// BiasEntries is the bias weight table Wb size.
	BiasEntries int
	// WmRows is the row count of the 2-D recent-history table Wm
	// (1024 in §VI-B).
	WmRows int
	// RecentUnfiltered is ht, the recent unfiltered positions covered by
	// Wm (16 in the practical design; 72 in ModeFilterWeights to mirror
	// the Fig. 9 bar).
	RecentUnfiltered int
	// WrsEntries is the 1-D weight table size (65536 in §VI-B).
	WrsEntries int
	// RSDepth is the recency stack depth (48 in §VI-B); in
	// ModeBiasFreeGHR it is the filtered shift-register depth.
	RSDepth int
	// DistBits caps pos_hist distances at 2^DistBits-1.
	DistBits int
	// FoldWidth is the folded-history hash width.
	FoldWidth int
	// LoopPredictor enables the 64-entry 4-way loop component (§IV-B2).
	LoopPredictor bool
	// NotFoundPrediction is the direction guessed for never-seen
	// branches (Algorithm 2's "taken/not_taken"); false = not taken.
	NotFoundPrediction bool
	// AheadPipelined removes the current branch PC from the correlating
	// weight-row hashes (§VIII future work): the dot product can then be
	// computed ahead of time from history alone, with the PC selecting
	// only the bias weight at the last moment. Costs some accuracy to
	// cross-branch aliasing.
	AheadPipelined bool
}

// Default64KB is the paper's §VI-B configuration: BST 16384, Wm 1024x16,
// Wrs 65536, RS depth 48, with the loop predictor.
func Default64KB() Config {
	return Config{
		Mode:             ModeFull,
		BSTEntries:       16384,
		BiasEntries:      1 << 12,
		WmRows:           1024,
		RecentUnfiltered: 16,
		WrsEntries:       1 << 16,
		RSDepth:          48,
		DistBits:         12,
		FoldWidth:        12,
		LoopPredictor:    true,
	}
}

// Default32KB is the paper's 32KB configuration (2.73 MPKI in §VI-B).
func Default32KB() Config {
	c := Default64KB()
	c.BSTEntries = 8192
	c.WmRows = 512
	c.WrsEntries = 1 << 15
	c.BiasEntries = 1 << 11
	return c
}

// Ablation returns the Fig. 9 configuration for the given mode at the
// 64KB scale: ModeFilterWeights runs the conventional 72-deep unfiltered
// perceptron with BST gating; ModeBiasFreeGHR filters the history without
// a recency stack; ModeFull is BF-Neural.
func Ablation(mode Mode) Config {
	c := Default64KB()
	c.Mode = mode
	if mode == ModeFilterWeights {
		c.RecentUnfiltered = 72
		c.RSDepth = 0
		c.WmRows = 512
		c.WrsEntries = 2 // unused; keep tiny
	}
	return c
}

// weights are 6-bit in the storage budget; clamp accordingly.
const (
	wMax = 31
	wMin = -32
)

// filtered history entry (bias-free GHR / recency stack element).
type fentry struct {
	hpc   uint32
	taken bool
	seq   uint64
}

// checkpoint is one in-flight prediction. Its index and direction
// arrays are sized once from the config (RecentUnfiltered Wm positions,
// RSDepth stack entries) and reused by every lookup in its ring slot.
type checkpoint struct {
	pc          uint64
	state       bst.State
	accum       int32
	wmRows      []int32 // flat Wm indices, -1 when unpopulated
	wmDirs      []bool
	wrsIdxs     []int32
	wrsDirs     []bool
	loopPred    bool
	loopOK      bool
	loopApplied bool
	pred        bool // the perceptron/bias decision before loop override
	final       bool
}

// Predictor is the BF-Neural predictor.
type Predictor struct {
	cfg Config

	class bst.Classifier
	wb    []int8
	wm    []int8 // WmRows x RecentUnfiltered
	wrs   []int8

	biasMask uint64
	wmMask   uint64
	wrsMask  uint64

	folds *history.FoldSet // unfiltered outcome history + folds
	seq   uint64           // global committed-branch counter

	// Filtered history: ModeFull keeps a recency stack (unique PCs,
	// O(1) hit/push via rs.Stack); ModeBiasFreeGHR a shift register with
	// duplicates, newest-first in filt.
	rstack *rs.Stack
	filt   []fentry

	loop     *looppred.Predictor
	withLoop int32

	theta int32
	tc    int32
	// inflight holds the predictions awaiting their update, oldest
	// first; its free slot doubles as scratch for lookups that never go
	// in flight.
	inflight inflight.Ring[checkpoint]
	distCap  uint64
	// qdist tabulates quantDist over [0, distCap] (distances arrive
	// saturated), replacing the per-entry bit scan with one small-table
	// load; nil when DistBits is too wide to tabulate.
	qdist []uint32

	// compute scratch: recent hashed PCs gathered from the ring, so the
	// Wm hot loop runs over a dense array instead of per-entry accessors.
	gpcs []uint32
}

// New returns a BF-Neural predictor for cfg.
func New(cfg Config) *Predictor {
	if cfg.BSTEntries <= 0 || cfg.BSTEntries&(cfg.BSTEntries-1) != 0 {
		panic("bfneural: BSTEntries must be a positive power of two")
	}
	if cfg.BiasEntries <= 0 || cfg.BiasEntries&(cfg.BiasEntries-1) != 0 {
		panic("bfneural: BiasEntries must be a positive power of two")
	}
	if cfg.WmRows <= 0 || cfg.WmRows&(cfg.WmRows-1) != 0 {
		panic("bfneural: WmRows must be a positive power of two")
	}
	if cfg.WrsEntries <= 0 || cfg.WrsEntries&(cfg.WrsEntries-1) != 0 {
		panic("bfneural: WrsEntries must be a positive power of two")
	}
	if cfg.RecentUnfiltered < 0 || cfg.RSDepth < 0 || cfg.RecentUnfiltered+cfg.RSDepth == 0 {
		panic("bfneural: history geometry invalid")
	}
	if cfg.FoldWidth == 0 {
		cfg.FoldWidth = 12
	}
	if cfg.DistBits == 0 {
		cfg.DistBits = 12
	}
	p := &Predictor{
		cfg:      cfg,
		wb:       make([]int8, cfg.BiasEntries),
		wm:       make([]int8, cfg.WmRows*maxInt(cfg.RecentUnfiltered, 1)),
		wrs:      make([]int8, cfg.WrsEntries),
		biasMask: uint64(cfg.BiasEntries - 1),
		wmMask:   uint64(cfg.WmRows - 1),
		wrsMask:  uint64(cfg.WrsEntries - 1),
		distCap:  1<<uint(cfg.DistBits) - 1,
		// A deliberately small initial threshold: most of this
		// predictor's inputs are single high-confidence stack entries
		// rather than dozens of weak unfiltered correlations, so confident
		// correct states should freeze quickly; the adaptive loop raises
		// theta where more training is needed.
		theta: 24,
	}
	if cfg.Classifier != nil {
		p.class = cfg.Classifier
	} else {
		p.class = bst.NewTable(cfg.BSTEntries)
	}
	p.folds = history.NewFoldSet(foldLengths(), cfg.FoldWidth, 4096)
	p.gpcs = make([]uint32, maxInt(cfg.RecentUnfiltered, 1))
	if cfg.DistBits <= 16 {
		p.qdist = make([]uint32, p.distCap+1)
		for d := range p.qdist {
			p.qdist[d] = uint32(quantDist(uint64(d)))
		}
	}
	if cfg.Mode == ModeFull && cfg.RSDepth > 0 {
		p.rstack = rs.NewStack(cfg.RSDepth, cfg.DistBits)
	}
	if cfg.LoopPredictor {
		p.loop = looppred.NewDefault()
	}
	p.inflight = inflight.New(p.makeCheckpoint)
	return p
}

// makeCheckpoint allocates a checkpoint's arrays at their largest size.
func (p *Predictor) makeCheckpoint() checkpoint {
	ht, depth := p.cfg.RecentUnfiltered, p.cfg.RSDepth
	return checkpoint{
		wmRows:  make([]int32, 0, ht),
		wmDirs:  make([]bool, 0, ht),
		wrsIdxs: make([]int32, 0, depth),
		wrsDirs: make([]bool, 0, depth),
	}
}

// slot returns the ring's free slot reset, keeping its arrays, to a
// fresh checkpoint for pc. The slot is not put in flight.
func (p *Predictor) slot(pc uint64) *checkpoint {
	cp := p.inflight.Next()
	*cp = checkpoint{
		pc:      pc,
		state:   p.class.Lookup(pc),
		wmRows:  cp.wmRows[:0],
		wmDirs:  cp.wmDirs[:0],
		wrsIdxs: cp.wrsIdxs[:0],
		wrsDirs: cp.wrsDirs[:0],
	}
	return cp
}

// foldLengths is the fixed bank of folded-history registers: dense for
// recent history, geometric out to 2048 branches.
func foldLengths() []int {
	return []int{1, 2, 3, 4, 6, 8, 11, 16, 22, 32, 45, 64, 91, 128,
		181, 256, 362, 512, 724, 1024, 1448, 2048}
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string {
	if p.cfg.Name != "" {
		return p.cfg.Name
	}
	switch p.cfg.Mode {
	case ModeFilterWeights:
		return "bf-neural(fhist)"
	case ModeBiasFreeGHR:
		return "bf-neural(ghist)"
	default:
		return "bf-neural"
	}
}

// quantDist quantizes a pos_hist distance for hashing: exact below 64
// (loop-positional patterns like Fig. 4 need every iteration separated),
// floating-point-style with a 6-bit mantissa above (distant correlations
// tolerate a few percent of positional jitter, and coarsening them keeps
// the Wrs working set small).
func quantDist(d uint64) uint64 {
	if d < 64 {
		return d
	}
	shift := uint(bits.Len64(d)) - 6
	return (d >> shift) << shift
}

// compute evaluates the perceptron sum for a non-biased pc, filling the
// checkpoint's index lists. The Wm loop reads the recent outcome bits
// as one packed word and the hashed PCs as a dense gather; the Wrs loop
// runs over arrays gathered from the recency stack in one list walk.
// Both produce exactly the rows/indices of the per-entry-accessor
// reference model (asserted by TestComputeDifferential). cp's arrays
// must have the capacity makeCheckpoint gives them.
func (p *Predictor) compute(pc uint64, cp *checkpoint) {
	var pch uint64
	if !p.cfg.AheadPipelined {
		pch = rng.Hash64(pc >> 2)
	}
	accum := int32(p.wb[(pc>>2)&p.biasMask])

	// Conventional component over recent unfiltered history (Wm).
	ht := p.cfg.RecentUnfiltered
	rows := cp.wmRows[:0]
	dirs := cp.wmDirs[:0]
	ring := p.folds.Ring()
	if n := ring.Len(); n >= ht && ht <= 64 {
		rows = rows[:ht]
		dirs = dirs[:ht]
		rt := ring.RecentTaken(ht)
		gpcs := p.gpcs[:ht]
		ring.FillRecentPCs(gpcs)
		fs, wmMask := p.folds, p.wmMask
		for i := 1; i <= ht; i++ {
			key := pch ^ uint64(gpcs[i-1])*0x9e3779b97f4a7c15 ^ fs.Fold(i)<<17 ^ uint64(i)<<40
			rows[i-1] = int32(rng.Hash64(key)&wmMask)*int32(ht) + int32(i-1)
			dirs[i-1] = rt>>uint(i-1)&1 != 0
		}
		accum += dotp.SignedGatherSum(p.wm, rows, dirs)
	} else {
		for i := 1; i <= ht; i++ {
			e, ok := ring.At(i)
			if !ok {
				rows = append(rows, -1)
				dirs = append(dirs, false)
				continue
			}
			key := pch ^ uint64(e.HashedPC)*0x9e3779b97f4a7c15 ^ p.folds.Fold(i)<<17 ^ uint64(i)<<40
			row := int32(rng.Hash64(key)&p.wmMask)*int32(ht) + int32(i-1)
			rows = append(rows, row)
			dirs = append(dirs, e.Taken)
			w := int32(p.wm[row])
			if e.Taken {
				accum += w
			} else {
				accum -= w
			}
		}
	}
	cp.wmRows, cp.wmDirs = rows, dirs

	// Recency-stack component (Wrs).
	idxs := cp.wrsIdxs[:0]
	sdirs := cp.wrsDirs[:0]
	if p.rstack != nil {
		// §IV-B2: hash(pc, A, pos_hist, folded history up to the
		// entry) — no relative depth, so previously detected
		// non-biased branches never relearn when depths shift. The
		// recency walk is fused into the hash loop over the stack's
		// dense view; distances saturate exactly as Iter reports them.
		v := p.rstack.View()
		n := v.N
		idxs = idxs[:n]
		sdirs = sdirs[:n]
		fs, wrsMask := p.folds, p.wrsMask
		order, spc, stk, sseq := v.Order, v.PC, v.Taken, v.Seq
		cur, maxd := v.Cur, v.MaxDist
		if qd := p.qdist; qd != nil {
			for j := 0; j < n; j++ {
				sl := order[j]
				d := cur - sseq[sl]
				if d > maxd {
					d = maxd
				}
				sdirs[j] = stk[sl]
				key := pch ^ spc[sl]*0x9e3779b97f4a7c15 ^ uint64(qd[d])<<28 ^ fs.Fold(int(d))<<9
				idxs[j] = int32(rng.Hash64(key) & wrsMask)
			}
		} else {
			for j := 0; j < n; j++ {
				sl := order[j]
				d := cur - sseq[sl]
				if d > maxd {
					d = maxd
				}
				sdirs[j] = stk[sl]
				key := pch ^ spc[sl]*0x9e3779b97f4a7c15 ^ quantDist(d)<<28 ^ fs.Fold(int(d))<<9
				idxs[j] = int32(rng.Hash64(key) & wrsMask)
			}
		}
		accum += dotp.SignedGatherSum(p.wrs, idxs, sdirs)
		cp.wrsIdxs, cp.wrsDirs = idxs, sdirs
		cp.accum = accum
		return
	}
	cp.wrsIdxs = idxs
	cp.wrsDirs = sdirs
	for j := range p.filt {
		e := &p.filt[j]
		dist := p.seq - e.seq
		if dist > p.distCap {
			dist = p.distCap
		}
		// Idealized/ghist variant: relative depth selects the context
		// (Algorithm 1 style).
		key := pch ^ uint64(e.hpc)*0x9e3779b97f4a7c15 ^ uint64(j)<<28 ^ p.folds.Fold(int(dist))<<9
		idx := int32(rng.Hash64(key) & p.wrsMask)
		cp.wrsIdxs = append(cp.wrsIdxs, idx)
		cp.wrsDirs = append(cp.wrsDirs, e.taken)
		w := int32(p.wrs[idx])
		if e.taken {
			accum += w
		} else {
			accum -= w
		}
	}
	cp.accum = accum
}

// lookup fills a checkpoint's prediction fields for cp.pc (the body of
// Algorithm 2).
func (p *Predictor) lookup(cp *checkpoint) {
	switch cp.state {
	case bst.NotFound:
		cp.pred = p.cfg.NotFoundPrediction
	case bst.Taken:
		cp.pred = true
	case bst.NotTaken:
		cp.pred = false
	default:
		p.compute(cp.pc, cp)
		cp.pred = cp.accum >= 0
	}
	cp.final = cp.pred
	if p.loop != nil {
		lp, ok := p.loop.Predict(cp.pc)
		cp.loopPred, cp.loopOK = lp, ok
		if ok && p.withLoop >= 0 {
			cp.final = lp
			cp.loopApplied = true
		}
	}
}

// Predict implements sim.Predictor (Algorithm 2).
func (p *Predictor) Predict(pc uint64) bool {
	cp := p.slot(pc)
	p.lookup(cp)
	p.inflight.Push()
	return cp.final
}

// commit applies the resolved outcome for cp.pc (the body of Algorithm
// 3 after the checkpoint is in hand).
func (p *Predictor) commit(cp *checkpoint, taken bool) {
	pc := cp.pc
	if p.loop != nil {
		if cp.loopOK && cp.loopPred != cp.pred {
			p.withLoop = clamp32(p.withLoop+b2i(cp.loopPred == taken)*2-1, -64, 63)
		}
		p.loop.Update(pc, taken, cp.pred != taken)
	}

	switch cp.state {
	case bst.NotFound:
		// First commit: adopt the direction as the bias.
	case bst.Taken, bst.NotTaken:
		if cp.pred != taken {
			// The branch just revealed itself as non-biased; train the
			// weights so the perceptron picks it up immediately
			// (Algorithm 3 updates Wb, Wm, Wrs on this transition).
			p.compute(pc, cp)
			p.trainWeights(cp, taken)
		}
	case bst.NonBiased:
		mag := cp.accum
		if mag < 0 {
			mag = -mag
		}
		if cp.pred != taken || mag < p.theta {
			p.trainWeights(cp, taken)
			p.adaptTheta(cp.pred != taken, mag)
		}
	}
	p.class.Update(pc, taken)

	// History management: the filtered structure tracks non-biased
	// branches only; the unfiltered history tracks everything.
	p.seq++
	if p.rstack != nil {
		p.rstack.Tick()
	}
	if p.class.Lookup(pc) == bst.NonBiased {
		p.pushFiltered(pc, taken)
	}
	p.folds.Push(history.Entry{HashedPC: uint32(rng.Hash64(pc >> 2)), Taken: taken})
}

// Update implements sim.Predictor (Algorithm 3).
// An update whose PC does not match the oldest checkpoint (a caller
// that skipped Predict) commits from a fresh checkpoint instead, with
// the perceptron sum computed only for a non-biased branch.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	if p.inflight.Len() > 0 && p.inflight.At(0).pc == pc {
		p.commit(p.inflight.At(0), taken)
		p.inflight.Pop()
		return
	}
	cp := p.slot(pc)
	if cp.state == bst.NonBiased {
		p.compute(pc, cp)
		cp.pred = cp.accum >= 0
	}
	p.commit(cp, taken)
}

func (p *Predictor) pushFiltered(pc uint64, taken bool) {
	if p.cfg.RSDepth == 0 {
		return
	}
	hpc := uint32(rng.Hash64(pc>>2) & 0x3FFF) // 14-bit hashed address
	if p.rstack != nil {
		// Recency stack: move-to-front on hit (Fig. 3), O(1).
		p.rstack.Push(uint64(hpc), taken)
		return
	}
	// Shift in; drop the deepest when full.
	if len(p.filt) < p.cfg.RSDepth {
		p.filt = append(p.filt, fentry{})
	}
	copy(p.filt[1:], p.filt[:len(p.filt)-1])
	p.filt[0] = fentry{hpc: hpc, taken: taken, seq: p.seq}
}

func (p *Predictor) trainWeights(cp *checkpoint, taken bool) {
	bi := (cp.pc >> 2) & p.biasMask
	p.wb[bi] = satUpdate8(p.wb[bi], taken)
	for i, row := range cp.wmRows {
		if row < 0 {
			continue
		}
		p.wm[row] = satUpdate6(p.wm[row], taken == cp.wmDirs[i])
	}
	for i, idx := range cp.wrsIdxs {
		p.wrs[idx] = satUpdate6(p.wrs[idx], taken == cp.wrsDirs[i])
	}
}

func (p *Predictor) adaptTheta(mispred bool, mag int32) {
	if mispred {
		p.tc++
		if p.tc >= 16 {
			p.theta++
			p.tc = 0
		}
	} else if mag <= p.theta {
		p.tc--
		if p.tc <= -16 {
			if p.theta > 4 {
				p.theta--
			}
			p.tc = 0
		}
	}
}

func satUpdate6(w int8, up bool) int8 {
	if up {
		if w < wMax {
			return w + 1
		}
		return w
	}
	if w > wMin {
		return w - 1
	}
	return w
}

func satUpdate8(w int8, up bool) int8 {
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

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func clamp32(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Classifier exposes the BST (for tests and analysis tools).
func (p *Predictor) Classifier() bst.Classifier { return p.class }

// Theta exposes the adaptive threshold (for tests).
func (p *Predictor) Theta() int32 { return p.theta }

// FilteredLen exposes the live filtered-history length (for tests).
func (p *Predictor) FilteredLen() int {
	if p.rstack != nil {
		return p.rstack.Len()
	}
	return len(p.filt)
}

// explainTopWeights is the number of contributions Explain reports.
const explainTopWeights = 8

// Explain implements sim.Explainer. The component reflects the BST
// gate: biased and not-yet-seen branches report "bias-filter" with
// FilterDecision set (the paper's biased-skip path), non-biased branches
// report the perceptron sum against theta with the strongest Wm/Wrs
// contributions (position 0 = bias weight, 1..RecentUnfiltered = Wm
// history positions, beyond that = recency-stack slots).
func (p *Predictor) Explain(pc uint64) sim.Provenance {
	cp := p.inflight.Last(func(q *checkpoint) bool { return q.pc == pc })
	if cp == nil {
		cp = p.slot(pc)
		switch cp.state {
		case bst.NotFound:
			cp.pred = p.cfg.NotFoundPrediction
		case bst.Taken:
			cp.pred = true
		case bst.NotTaken:
			cp.pred = false
		default:
			p.compute(pc, cp)
			cp.pred = cp.accum >= 0
		}
		cp.final = cp.pred
	}
	prov := sim.Provenance{
		Predictor:  p.Name(),
		Prediction: cp.final,
		BiasState:  cp.state.String(),
	}
	switch {
	case cp.loopApplied:
		prov.Component = "loop"
		// The loop predictor only overrides at full confidence.
		prov.Confidence = 7
	case cp.state == bst.NonBiased:
		prov.Component = "perceptron"
		mag := cp.accum
		if mag < 0 {
			mag = -mag
		}
		prov.Confidence = mag
		prov.Threshold = p.theta
		ht := p.cfg.RecentUnfiltered
		ws := make([]sim.WeightContrib, 0, len(cp.wmRows)+len(cp.wrsIdxs)+1)
		ws = append(ws, sim.WeightContrib{Position: 0, Weight: int32(p.wb[(pc>>2)&p.biasMask])})
		for i, row := range cp.wmRows {
			if row < 0 {
				continue
			}
			w := int32(p.wm[row])
			if !cp.wmDirs[i] {
				w = -w
			}
			ws = append(ws, sim.WeightContrib{Position: i + 1, Weight: w})
		}
		for j, idx := range cp.wrsIdxs {
			w := int32(p.wrs[idx])
			if !cp.wrsDirs[j] {
				w = -w
			}
			ws = append(ws, sim.WeightContrib{Position: ht + 1 + j, Weight: w})
		}
		prov.TopWeights = sim.TopWeightContribs(ws, explainTopWeights)
	default:
		prov.Component = "bias-filter"
		prov.Confidence = 1
		prov.FilterDecision = true
	}
	return prov
}

// Storage implements sim.StorageAccounter. Wm and Wrs weights are 6-bit,
// bias weights 8-bit, RS entries carry a 14-bit hashed address, outcome
// bit, and pos_hist field.
func (p *Predictor) Storage() sim.Breakdown {
	b := sim.Breakdown{Name: p.Name()}
	b.Components = append(b.Components,
		sim.Component{Name: "BST", Bits: p.class.StorageBits()},
		sim.Component{Name: "bias weights Wb (8-bit)", Bits: 8 * len(p.wb)},
		sim.Component{Name: "recent table Wm (6-bit)", Bits: 6 * len(p.wm)},
		sim.Component{Name: "RS table Wrs (6-bit)", Bits: 6 * len(p.wrs)},
		sim.Component{Name: "recency stack", Bits: p.cfg.RSDepth * (14 + 1 + p.cfg.DistBits)},
		sim.Component{Name: "unfiltered history+folds", Bits: 4096 + len(foldLengths())*p.cfg.FoldWidth},
	)
	if p.loop != nil {
		b.Components = append(b.Components, sim.Component{Name: "loop predictor", Bits: p.loop.StorageBits()})
	}
	return b
}

// ProbeState implements sim.StateProbe: weight profiles for Wb (8-bit
// clamps) and Wm/Wrs (6-bit clamps), the BST's classification census,
// and the recency structure's fill (the rs.Stack in ModeFull, the
// filtered shift register otherwise).
func (p *Predictor) ProbeState() sim.TableStats {
	ts := sim.TableStats{
		Predictor: p.Name(),
		Weights: []sim.WeightStats{
			sim.WeightArrayStats(0, "wb", 0, p.wb, -128, 127),
			sim.WeightArrayStats(1, "wm", p.cfg.RecentUnfiltered, p.wm, wMin, wMax),
			sim.WeightArrayStats(2, "wrs", 0, p.wrs, wMin, wMax),
		},
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
	if p.rstack != nil {
		ts.Recency = append(ts.Recency, sim.RecencyStats{
			Segment: 0, Size: p.rstack.Depth(), Live: p.rstack.Len(),
		})
	} else if p.cfg.RSDepth > 0 {
		ts.Recency = append(ts.Recency, sim.RecencyStats{
			Segment: 0, Size: p.cfg.RSDepth, Live: len(p.filt),
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
