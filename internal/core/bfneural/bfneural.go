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
// The predictor is the perceptron package's neural engine, gated by the
// BST, under this package's history: the engine's dense fill over the
// ht unfiltered positions for Wm, then the recency stack for Wrs.
//
// The Mode switch reproduces the ablation of the paper's Fig. 9: filtering
// only the weight tables, filtering the history (without the recency
// stack), and the full recency-stack design.
package bfneural

import (
	"math/bits"

	"bfbp/internal/bst"
	"bfbp/internal/predictor/perceptron"
	"bfbp/internal/rng"
	"bfbp/internal/rs"
	"bfbp/internal/sim"
	"bfbp/internal/state"
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
	// Mode selects the filtering level (default ModeFull).
	Mode Mode
	// BSTEntries is the Branch Status Table size (16384 in §VI-B).
	BSTEntries int
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
	// LoopPredictor enables the 64-entry 4-way loop component (§IV-B2).
	LoopPredictor bool
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

// AheadPipelined returns the §VIII ahead-pipelined configuration at the
// 64KB scale: Default64KB with the weight-row indices computed without
// the current branch PC. The paper sketches it as future work, ahead
// pipelining as in piecewise-linear prediction "in conjunction with not
// including the branch PC in row index computation": the sum for the
// next branch can start several cycles early from history alone, the
// late PC selecting only the bias weight. The correlating hashes lose
// the PC's disambiguation, so branches that share history contexts
// alias more; BenchmarkAblationAheadPipelined measures that price.
func AheadPipelined() Config {
	c := Default64KB()
	c.AheadPipelined = true
	return c
}

// distBits is the pos_hist field width: distances saturate at
// 2^distBits-1.
const distBits = 12

// hpcBits is the width of the hashed address kept per filtered entry.
const hpcBits = 14

// New returns a BF-Neural predictor for cfg.
func New(cfg Config) *perceptron.Predictor {
	p, _ := build(cfg, nil)
	return p
}

// build returns the predictor and its history, classifying branches with
// class, or with a BSTEntries-entry 2-bit FSM BST when class is nil.
func build(cfg Config, class bst.Classifier) (*perceptron.Predictor, *source) {
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
	if class == nil {
		class = bst.NewTable(cfg.BSTEntries)
	}
	ht := cfg.RecentUnfiltered
	wmEntries := cfg.WmRows * max(ht, 1)
	u := perceptron.NewUnfiltered(2048, foldLengths())
	s := &source{
		cfg:     cfg,
		class:   class,
		u:       u,
		wm:      perceptron.NewDense(u, ht, cfg.WmRows),
		wrsBase: int32(wmEntries),
		wrsMask: uint64(cfg.WrsEntries - 1),
		qdist:   make([]uint32, 1<<distBits),
	}
	for d := range s.qdist {
		s.qdist[d] = uint32(quantDist(uint64(d)))
	}
	if cfg.Mode == ModeFull && cfg.RSDepth > 0 {
		s.rstack = rs.NewStack(cfg.RSDepth, distBits)
	}
	name := "bf-neural"
	switch cfg.Mode {
	case ModeFilterWeights:
		name = "bf-neural(fhist)"
	case ModeBiasFreeGHR:
		name = "bf-neural(ghist)"
	}
	p := perceptron.NewEngine(perceptron.Spec{
		Name:       name,
		ConfigHash: configHash(cfg, class),
		Tables: []perceptron.Table{
			{Name: "wb", Label: "bias weights Wb (8-bit)", Entries: cfg.BiasEntries, Bias: true},
			{Name: "wm", Label: "recent table Wm (6-bit)", Entries: wmEntries, HistLen: ht},
			{Name: "wrs", Label: "RS table Wrs (6-bit)", Entries: cfg.WrsEntries},
		},
		// A deliberately small initial threshold: most of this
		// predictor's inputs are single high-confidence stack entries
		// rather than dozens of weak unfiltered correlations, so confident
		// correct states should freeze quickly; the adaptive loop raises
		// theta where more training is needed.
		Tuning: perceptron.Tuning{
			WeightBits:  6,
			Theta0:      24,
			ThetaPeriod: 16,
			ThetaFloor:  4,
		},
		MaxIndices: ht + cfg.RSDepth,
		Gate:       class,
		Loop:       cfg.LoopPredictor,
		Source:     s,
		// RS entries carry a 14-bit hashed address, outcome bit and
		// pos_hist field each.
		HistoryStorage: []sim.Component{
			{Name: "recency stack", Bits: cfg.RSDepth * (hpcBits + 1 + distBits)},
			{Name: "unfiltered history+folds", Bits: u.Ring().Cap() + len(foldLengths())*perceptron.FoldWidth},
		},
	})
	return p, s
}

// configHash hashes cfg and, in their places in the snapshot format's
// hash, the empty name override that configs once carried, the fixed
// distance width, fold width and not-found direction.
func configHash(cfg Config, class bst.Classifier) uint64 {
	h := state.NewHash("bfneural")
	h.String("")
	h.Int(int(cfg.Mode))
	h.Int(cfg.BSTEntries)
	h.String(bst.KindOf(class))
	h.Int(cfg.BiasEntries)
	h.Int(cfg.WmRows)
	h.Int(cfg.RecentUnfiltered)
	h.Int(cfg.WrsEntries)
	h.Int(cfg.RSDepth)
	h.Int(distBits)
	h.Int(perceptron.FoldWidth)
	h.Bool(cfg.LoopPredictor)
	h.Bool(false)
	h.Bool(cfg.AheadPipelined)
	return h.Sum()
}

// foldLengths is the fixed bank of folded-history registers: dense for
// recent history, geometric out to 2048 branches.
func foldLengths() []int {
	return []int{1, 2, 3, 4, 6, 8, 11, 16, 22, 32, 45, 64, 91, 128,
		181, 256, 362, 512, 724, 1024, 1448, 2048}
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

// fentry is a filtered-history (bias-free GHR) element.
type fentry struct {
	hpc   uint32
	taken bool
	seq   uint64
}

// source is BF-Neural's history: the unfiltered history under Wm, and
// for Wrs the recency stack (ModeFull) or the bias-free shift register
// (ModeBiasFreeGHR), both fed the branches the BST holds non-biased.
type source struct {
	cfg     Config
	class   bst.Classifier
	u       *perceptron.Unfiltered
	wm      perceptron.Dense
	wrsBase int32
	wrsMask uint64
	seq     uint64 // committed-branch counter
	// Filtered history: ModeFull keeps a recency stack (unique PCs,
	// move-to-front on a hit, in rs.Stack); ModeBiasFreeGHR a shift
	// register with duplicates, newest-first in filt.
	rstack *rs.Stack
	filt   []fentry
	// qdist tabulates quantDist over [0, 2^distBits-1] (distances
	// arrive saturated), replacing the per-entry bit scan with one
	// small-table load.
	qdist []uint32
}

// Fill writes the Wm indices of the ht unfiltered positions, then the
// Wrs index of each filtered-history entry. The Wm fill reads the
// recent history as a dense gather; the Wrs loop runs over the recency
// stack's dense view. Both produce exactly the indices of the
// per-entry-accessor reference model (asserted by
// TestComputeDifferential).
func (s *source) Fill(pc uint64, idx []int32, dirs []bool) (n, recent int) {
	var pch uint64
	if !s.cfg.AheadPipelined {
		pch = rng.Hash64(pc >> 2)
	}
	recent = s.wm.Fill(pch, idx, dirs)
	n = recent
	fs, base, mask := s.u.Folds(), s.wrsBase, s.wrsMask
	if s.rstack != nil {
		// §IV-B2: hash(pc, A, pos_hist, folded history up to the
		// entry) — no relative depth, so previously detected
		// non-biased branches never relearn when depths shift. The
		// recency walk is fused into the hash loop as a linear read of
		// the stack's view; distances saturate exactly as At reports
		// them.
		v := s.rstack.View()
		k := len(v.PC)
		idx, dirs, taken, seqs := idx[n:n+k], dirs[n:n+k], v.Taken[:k], v.Seq[:k]
		qd := s.qdist
		for j, hpc := range v.PC {
			d := min(v.Cur-seqs[j], v.MaxDist)
			dirs[j] = taken[j]
			key := pch ^ uint64(hpc)*0x9e3779b97f4a7c15 ^ uint64(qd[d])<<28 ^ fs.Fold(int(d))<<9
			idx[j] = base + int32(rng.Hash64(key)&mask)
		}
		return n + k, recent
	}
	for j := range s.filt {
		e := &s.filt[j]
		d := min(s.seq-e.seq, 1<<distBits-1)
		// Idealized/ghist variant: relative depth selects the context
		// (Algorithm 1 style).
		key := pch ^ uint64(e.hpc)*0x9e3779b97f4a7c15 ^ uint64(j)<<28 ^ fs.Fold(int(d))<<9
		idx[n] = base + int32(rng.Hash64(key)&mask)
		dirs[n] = e.taken
		n++
	}
	return n, recent
}

// Commit advances the histories; the filtered one takes only a branch
// the BST, already updated, holds non-biased.
func (s *source) Commit(pc uint64, taken bool) {
	s.seq++
	if s.rstack != nil {
		s.rstack.Tick()
	}
	if s.class.Lookup(pc) == bst.NonBiased {
		s.pushFiltered(pc, taken)
	}
	s.u.Commit(pc, taken)
}

func (s *source) pushFiltered(pc uint64, taken bool) {
	if s.cfg.RSDepth == 0 {
		return
	}
	hpc := uint32(rng.Hash64(pc>>2) & (1<<hpcBits - 1))
	if s.rstack != nil {
		// Recency stack: move-to-front on hit (Fig. 3).
		s.rstack.Push(hpc, taken)
		return
	}
	// Shift in; drop the deepest when full.
	if len(s.filt) < s.cfg.RSDepth {
		s.filt = append(s.filt, fentry{})
	}
	copy(s.filt[1:], s.filt[:len(s.filt)-1])
	s.filt[0] = fentry{hpc: hpc, taken: taken, seq: s.seq}
}

// Probe appends the recency structure's fill: the rs.Stack in ModeFull,
// the filtered shift register otherwise.
func (s *source) Probe(ts *sim.TableStats) {
	live := len(s.filt)
	if s.rstack != nil {
		live = s.rstack.Len()
	}
	if s.cfg.RSDepth > 0 {
		ts.Recency = append(ts.Recency, sim.RecencyStats{Segment: 0, Size: s.cfg.RSDepth, Live: live})
	}
}

// Save writes the unfiltered history and the committed-branch counter
// ("history"), then the recency stack ("rstack") or the shift register
// ("filt").
func (s *source) Save(snap *state.Snapshot) {
	s.u.Save(snap)
	snap.Section("history").U64(s.seq)
	if s.rstack != nil {
		s.rstack.SaveState(snap.Section("rstack"))
		return
	}
	fe := snap.Section("filt")
	fe.U32(uint32(len(s.filt)))
	for i := range s.filt {
		fe.U32(s.filt[i].hpc)
		fe.Bool(s.filt[i].taken)
		fe.U64(s.filt[i].seq)
	}
}

// Load decodes what Save wrote into fresh structures.
func (s *source) Load(snap *state.Snapshot) func() {
	commitU := s.u.Load(snap)
	seq := snap.Dec("history").U64()
	var rstack *rs.Stack
	var filt []fentry
	if s.rstack != nil {
		rd := snap.Dec("rstack")
		rstack = rs.NewStack(s.cfg.RSDepth, distBits)
		rstack.LoadState(rd)
		if rstack.Pos() != seq {
			rd.Corruptf("recency stack counter %d, history counter %d", rstack.Pos(), seq)
		}
		for _, hpc := range rstack.View().PC {
			if hpc >= 1<<hpcBits {
				rd.Corruptf("recency stack pc %#x is wider than %d bits", hpc, hpcBits)
				break
			}
		}
	} else {
		fd := snap.Dec("filt")
		if n := int(fd.U32()); n > s.cfg.RSDepth {
			fd.Corruptf("filtered register has %d entries, depth is %d", n, s.cfg.RSDepth)
		} else {
			filt = make([]fentry, n)
		}
		for i := range filt {
			filt[i] = fentry{hpc: fd.U32(), taken: fd.Bool(), seq: fd.U64()}
		}
		for i, e := range filt {
			if e.hpc >= 1<<hpcBits || e.seq > seq || i > 0 && e.seq > filt[i-1].seq {
				fd.Corruptf("filtered register entry %d (pc %#x, pushed at %d) is wider than %d bits, after the counter %d, or newer than the one above it",
					i, e.hpc, e.seq, hpcBits, seq)
				break
			}
		}
	}
	return func() {
		commitU()
		s.seq, s.rstack, s.filt = seq, rstack, filt
	}
}
