// Package bfghr is the bias-free global history register (BF-GHR) of
// the paper's Fig. 7, packaged as the history the bias-free TAGE and
// GEHL cores index their tables by: the 16 most recent unfiltered
// outcome bits followed by segmented recency stacks that each hold only
// the most recent occurrence of non-biased branches from a geometric
// segment of the unfiltered history.
//
// A GHR owns the Branch Status Table (or the classifier that overrides
// it), the segmented stacks with their unfiltered ring, and a linear key
// map over the register. The key map holds every table's fold of the
// BF-GHR, synced from the stacks' segment words after every commit, so
// a lookup reads all folds at once instead of re-deriving them from the
// register.
package bfghr

import (
	"bfbp/internal/bst"
	"bfbp/internal/history"
	"bfbp/internal/rng"
	"bfbp/internal/rs"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

// Config shapes a BF-GHR.
type Config struct {
	// UnfilteredBits is the number of recent unfiltered history bits kept
	// at the front of the BF-GHR (16 in §VI-C, to damp dynamic-detection
	// perturbations).
	UnfilteredBits int
	// SegBounds are the unfiltered-history depths delimiting the
	// recency-stack segments.
	SegBounds []int
	// SegSize is the per-segment stack capacity.
	SegSize int
	// BSTEntries is the Branch Status Table size.
	BSTEntries int
	// Classifier, when set, replaces the 2-bit FSM BST.
	Classifier bst.Classifier
}

// PaperSegBounds is the §VI-C history segmentation.
func PaperSegBounds() []int {
	return []int{16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048}
}

// GHR is a bias-free global history register with a key map of the
// caller's fields over it.
type GHR struct {
	cfg   Config
	class bst.Classifier
	seg   *rs.Segmented
	// keys is the linear key map over the BF-GHR's outcome bits
	// (channel 0) and address bits (channel 1). kw is Keys scratch.
	keys *history.KeyMap
	kw   []uint64
}

// New returns an empty BF-GHR whose key map maintains fields, each the
// XOR of its terms over the register (history.NewKeyMap). It panics on
// a malformed configuration or a term longer than the register.
func New(cfg Config, fields [][]history.Term) *GHR {
	if cfg.UnfilteredBits < 0 || cfg.UnfilteredBits > 64 {
		panic("bfghr: UnfilteredBits out of range")
	}
	if cfg.SegSize < 1 {
		panic("bfghr: SegSize must be >= 1")
	}
	if cfg.BSTEntries <= 0 || cfg.BSTEntries&(cfg.BSTEntries-1) != 0 {
		panic("bfghr: BSTEntries must be a positive power of two")
	}
	g := &GHR{cfg: cfg, class: cfg.Classifier, seg: rs.NewSegmented(cfg.SegBounds, cfg.SegSize)}
	if g.class == nil {
		g.class = bst.NewTable(cfg.BSTEntries)
	}
	for _, f := range fields {
		for _, t := range f {
			if t.N > g.Bits() {
				panic("bfghr: history length exceeds BF-GHR width")
			}
		}
	}
	g.keys = history.NewKeyMap(cfg.UnfilteredBits, cfg.SegSize, g.seg.Segments(), fields)
	g.kw = make([]uint64, g.keys.Words())
	return g
}

// Bits returns the BF-GHR width in bits.
func (g *GHR) Bits() int { return g.cfg.UnfilteredBits + g.seg.Bits() }

// Segmented exposes the recency stacks (for reference models).
func (g *GHR) Segmented() *rs.Segmented { return g.seg }

// Classifier exposes the BST or its override.
func (g *GHR) Classifier() bst.Classifier { return g.class }

// Keys returns the current key words: the maintained words with the
// unfiltered prefix rows XORed on top. The slice is scratch, valid until
// the next call; read fields from it with Field.
func (g *GHR) Keys() []uint64 {
	ring := g.seg.Ring()
	g.keys.Lookup(ring.RecentTaken(g.cfg.UnfilteredBits), ring.RecentPC(g.cfg.UnfilteredBits), g.kw)
	return g.kw
}

// Field extracts field f from key words returned by Keys.
func (g *GHR) Field(kw []uint64, f int) uint64 { return g.keys.Field(kw, f) }

// Commit performs the per-branch history management (§V-B4): classify,
// then commit into the unfiltered ring and the segmented stacks with the
// branch's bias status and hashed address. The stacks pick it up at
// segment boundaries, and the key map syncs to their segment words.
func (g *GHR) Commit(pc uint64, taken bool) {
	g.class.Update(pc, taken)
	g.seg.Commit(history.Entry{
		HashedPC:  uint32(rng.Hash64(pc>>2) & 0x3FFF),
		Taken:     taken,
		NonBiased: g.class.Lookup(pc) == bst.NonBiased,
	})
	g.keys.Sync(g.seg.Words())
}

// BiasState is pc's current BST classification.
func (g *GHR) BiasState(pc uint64) string { return g.class.Lookup(pc).String() }

// Reach returns the raw-branch depth a table consuming histLen BF-GHR
// bits can observe (ProbeState's BankStats.Reach). The table sees the
// UnfilteredBits most recent branches directly; every further bit is a
// recency-stack slot, and a slot in segment i can hold a branch as deep
// as SegBounds[i+1]. Conventional tables reach exactly their history
// length, so equal-length BF tables reach much deeper — the paper's
// equal-storage structural advantage.
func (g *GHR) Reach(histLen int) int {
	if histLen <= g.cfg.UnfilteredBits {
		return histLen
	}
	seg := (histLen - g.cfg.UnfilteredBits + g.cfg.SegSize - 1) / g.cfg.SegSize
	if seg >= len(g.cfg.SegBounds) {
		seg = len(g.cfg.SegBounds) - 1
	}
	return g.cfg.SegBounds[seg]
}

// Storage returns the BF-GHR's storage lines, as in the paper's Table I.
func (g *GHR) Storage() []sim.Component {
	return []sim.Component{
		{Name: "BST", Bits: g.class.StorageBits()},
		{Name: "segmented RS", Bits: g.seg.StorageBits()},
		// Table I: 1536-deep unfiltered history entries of 14-bit hashed
		// PC + outcome + bias status (we model 2048 for the last segment).
		{Name: "unfiltered history", Bits: 2048 * (14 + 1 + 1)},
	}
}

// Probe appends the BST's classification census, as the bank after
// the ones already in ts, and the segmented recency stacks' fill.
func (g *GHR) Probe(ts *sim.TableStats) {
	bst.Probe(ts, g.class)
	for i := 0; i < g.seg.Segments(); i++ {
		ts.Recency = append(ts.Recency, sim.RecencyStats{
			Segment: i,
			Size:    g.seg.SegSize(),
			Live:    g.seg.SegmentLen(i),
			Depth:   g.cfg.SegBounds[i+1],
		})
	}
}

// HashConfig folds the register's geometry into a snapshot config hash.
func (g *GHR) HashConfig(h *state.Hash) {
	h.Int(g.cfg.UnfilteredBits)
	h.Ints(g.cfg.SegBounds)
	h.Int(g.cfg.SegSize)
	h.Int(g.cfg.BSTEntries)
}

// Save writes the "bst" section and the recency stacks (which carry the
// unfiltered ring) into the "history" section, which it returns so the
// caller can append its own history state. The key map is derived state
// and is not saved.
func (g *GHR) Save(s *state.Snapshot) (*state.Enc, error) {
	if err := bst.SaveClassifier(s.Section("bst"), g.class); err != nil {
		return nil, err
	}
	hs := s.Section("history")
	g.seg.SaveState(hs)
	return hs, nil
}

// Load decodes what Save wrote into fresh recency stacks, leaving the
// "history" cursor after them for the caller's own state. commit, run
// once Snapshot.Err returns nil, installs the classifier and the stacks
// and rebuilds the key map from them.
func (g *GHR) Load(s *state.Snapshot) (commit func()) {
	seg := rs.NewSegmented(g.cfg.SegBounds, g.cfg.SegSize)
	seg.LoadState(s.Dec("history"))
	class := bst.LoadClassifier(s.Dec("bst"), g.class)
	return func() {
		class()
		g.seg = seg
		g.keys.Reset()
		g.keys.Sync(seg.Words())
	}
}
