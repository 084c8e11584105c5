// Package bftage implements the Bias-Free TAGE predictor of the paper
// (§V): a TAGE organisation whose tagged tables are indexed not by the raw
// global history but by the bias-free global history register (BF-GHR) of
// Fig. 7 — the 16 most recent unfiltered outcome bits followed by the
// contents of segmented recency stacks that each hold only the most recent
// occurrence of non-biased branches from a geometric segment of the
// unfiltered history.
//
// Because the segments reach 2048 branches into the past while the BF-GHR
// is only ~144 bits wide, a 10-table BF-TAGE indexed with history lengths
// {3,8,14,26,40,54,70,94,118,142} can capture the correlations a
// conventional TAGE needs 15 tables and 1930 history bits for — the
// paper's headline BF-TAGE result (Figs. 10-12).
//
// The predictor is the tage engine; this package supplies its history
// (the BF-GHR of package bfghr and the path register) and the paper's
// configurations.
package bftage

import (
	"fmt"

	"bfbp/internal/bfghr"
	"bfbp/internal/bst"
	"bfbp/internal/history"
	"bfbp/internal/predictor/tage"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

// Config parameterises BF-TAGE.
type Config struct {
	// Name overrides the reported predictor name.
	Name string
	// BaseLogEntries is log2 of the bimodal base size.
	BaseLogEntries int
	// Tables configures the tagged tables; HistLen is measured in BF-GHR
	// bits (compressed history), not raw branches.
	Tables []tage.TableConfig
	// UnfilteredBits is the number of recent unfiltered history bits kept
	// at the front of the BF-GHR (16 in §VI-C, to damp dynamic-detection
	// perturbations).
	UnfilteredBits int
	// SegBounds are the unfiltered-history depths delimiting the
	// recency-stack segments (§VI-C: {16, 32, 48, 64, 80, 104, 128, 192,
	// 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048}).
	SegBounds []int
	// SegSize is the per-segment stack capacity (8).
	SegSize int
	// BSTEntries is the Branch Status Table size (8192 in Table I).
	BSTEntries int
	// Classifier overrides the 2-bit FSM BST (e.g. bst.Oracle for the
	// §VI-D static profile-assisted variant).
	Classifier bst.Classifier
	// PathBits is the path-history width (16).
	PathBits int
	// LoopPredictor, StatisticalCorrector, IUM enable the ISL components
	// BF-ISL-TAGE inherits (§VI-C).
	LoopPredictor        bool
	StatisticalCorrector bool
	IUM                  bool
	// Seed drives allocation randomisation.
	Seed uint64
}

// Histories returns the BF-GHR history lengths for n tagged tables: the
// paper's set for n == 10, a geometric series from 3 to the BF-GHR width
// otherwise.
func Histories(n int) []int {
	if n == 10 {
		return []int{3, 8, 14, 26, 40, 54, 70, 94, 118, 142}
	}
	return history.GeometricRange(3, 142, n)
}

// Conventional returns a BF-ISL-TAGE with n tagged tables sized, like the
// paper, to the same storage as the corresponding conventional ISL-TAGE.
func Conventional(n int) Config {
	return conventional(n, true, true)
}

// ConventionalBare drops the SC and IUM components (paralleling
// tage.ConventionalBare).
func ConventionalBare(n int) Config {
	return conventional(n, false, false)
}

func conventional(n int, sc, ium bool) Config {
	// Tagged budget: the conventional target minus what the BF machinery
	// costs (BST 2KB + RS 284B + unfiltered history 3KB, Table I).
	const targetTaggedBits = (48*1024 - 2048 - 284 - 3072) * 8
	cfg := Config{
		Name:                 fmt.Sprintf("bf-isl-tage-%d", n),
		BaseLogEntries:       14,
		Tables:               tage.SizeTables(Histories(n), targetTaggedBits),
		UnfilteredBits:       16,
		SegBounds:            bfghr.PaperSegBounds(),
		SegSize:              8,
		BSTEntries:           8192,
		PathBits:             16,
		LoopPredictor:        true,
		StatisticalCorrector: sc,
		IUM:                  ium,
		Seed:                 0xBF7A6E,
	}
	if !sc && !ium {
		cfg.Name = fmt.Sprintf("bf-tage-%d", n)
	}
	return cfg
}

// New returns a BF-TAGE predictor for cfg: the TAGE engine indexed by
// the BF-GHR.
func New(cfg Config) *tage.Predictor {
	p, _ := build(cfg)
	return p
}

// build returns the predictor and its history.
func build(cfg Config) (*tage.Predictor, *ghrHistory) {
	var h *ghrHistory
	p := tage.NewWithHistory(tage.Config{
		Name:                 cfg.Name,
		BaseLogEntries:       cfg.BaseLogEntries,
		Tables:               cfg.Tables,
		PathBits:             cfg.PathBits,
		LoopPredictor:        cfg.LoopPredictor,
		StatisticalCorrector: cfg.StatisticalCorrector,
		IUM:                  cfg.IUM,
		Seed:                 cfg.Seed,
	}, tage.Org{Kind: "bftage", Name: "bf-tage", Unit: "bf-hist"}, func(tc tage.Config) tage.History {
		h = newGHRHistory(cfg, tc)
		return h
	})
	return p, h
}

// ghrHistory indexes the TAGE engine by the BF-GHR: per table, the key
// map keeps the index field fold_L(T) ^ fold_{L-1}(P)<<1 over the
// BF-GHR's outcome bits T and address bits P, and the tag field
// fold_T(T) ^ fold_{T-1}(T)<<1. The path register joins the index
// unmasked.
type ghrHistory struct {
	*bfghr.GHR
	path     *history.Path
	pathBits int
}

func newGHRHistory(cfg Config, tc tage.Config) *ghrHistory {
	var fields [][]history.Term
	for _, t := range tc.Tables {
		l := t.HistLen
		fields = append(fields,
			[]history.Term{{Ch: 0, N: l, Width: t.LogEntries}, {Ch: 1, N: l, Width: t.LogEntries - 1, Shift: 1}},
			[]history.Term{{Ch: 0, N: l, Width: t.TagBits}, {Ch: 0, N: l, Width: t.TagBits - 1, Shift: 1}})
	}
	return &ghrHistory{
		GHR: bfghr.New(bfghr.Config{
			UnfilteredBits: cfg.UnfilteredBits,
			SegBounds:      cfg.SegBounds,
			SegSize:        cfg.SegSize,
			BSTEntries:     cfg.BSTEntries,
			Classifier:     cfg.Classifier,
		}, fields),
		path:     history.NewPath(tc.PathBits),
		pathBits: tc.PathBits,
	}
}

func (h *ghrHistory) Folds(idx, tag []uint64) {
	kw := h.Keys()
	path := h.path.Value() << 20
	for i := range idx {
		idx[i] = h.Field(kw, 2*i) ^ path
		tag[i] = h.Field(kw, 2*i+1)
	}
}

func (h *ghrHistory) Commit(pc uint64, taken bool) {
	h.GHR.Commit(pc, taken)
	h.path.Push(pc)
}

func (h *ghrHistory) Storage() []sim.Component {
	return append(h.GHR.Storage(), sim.Component{Name: "path history", Bits: h.pathBits})
}

func (h *ghrHistory) HashConfig(hs *state.Hash) {
	h.GHR.HashConfig(hs)
	hs.String(bst.KindOf(h.Classifier()))
}

// SaveState writes the BST and a history section of the recency stacks
// followed by the path register.
func (h *ghrHistory) SaveState(s *state.Snapshot) error {
	hs, err := h.Save(s)
	if err != nil {
		return err
	}
	h.path.SaveState(hs)
	return nil
}

func (h *ghrHistory) LoadState(s *state.Snapshot) func() {
	commit := h.Load(s)
	path := history.NewPath(h.pathBits)
	path.LoadState(s.Dec("history"))
	return func() {
		commit()
		h.path = path
	}
}
