package bfbp

import (
	"fmt"
	"strconv"
	"strings"

	"bfbp/internal/sim"
)

// PredictorInfo is one registry entry: a canonical name, a one-line
// description, and a constructor returning a fresh instance.
type PredictorInfo struct {
	Name        string
	Description string
	New         func() Predictor
}

// Spec adapts the entry to the engine's PredictorSpec.
func (i PredictorInfo) Spec() PredictorSpec { return PredictorSpec{Name: i.Name, New: i.New} }

// Capabilities probes a fresh instance for its optional interfaces
// (storage accounting, explain, snapshot, state probe).
// The probe instance is discarded; call it for metadata, not for a
// predictor to run.
func (i PredictorInfo) Capabilities() CapabilitySet { return Capabilities(i.New()) }

// SelectPredictors resolves a comma-separated list of registry names or
// aliases into entries, in input order; "all" selects the full registry
// in reporting order. This is the shared -p / -preds flag semantics of
// every command.
func SelectPredictors(list string) ([]PredictorInfo, error) {
	if strings.TrimSpace(list) == "all" {
		return Predictors(), nil
	}
	var out []PredictorInfo
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		info, err := PredictorByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bfbp: empty predictor list %q", list)
	}
	return out, nil
}

// fixedRegistry lists every non-parameterised constructor in reporting
// order: simple baselines, classic hybrids, related work, the paper's
// baselines, then the paper's contributions and their ablations.
var fixedRegistry = []PredictorInfo{
	{"static-taken", "always predicts taken (zero baseline)",
		func() Predictor { return &sim.StaticPredictor{Direction: true} }},
	{"static-not-taken", "always predicts not-taken (zero baseline)",
		func() Predictor { return &sim.StaticPredictor{Direction: false} }},
	{"bimodal", "PC-indexed 2-bit counters (16K entries)",
		func() Predictor { return NewBimodal(1 << 14) }},
	{"gshare", "global history XOR PC into 2-bit counters (64K entries)",
		func() Predictor { return NewGShare(1<<16, 16) }},
	{"local", "two-level local-history predictor",
		func() Predictor { return NewLocal(1<<12, 10, 1<<15) }},
	{"tournament", "Alpha-21264-style local/global hybrid (~64KB)",
		func() Predictor { return NewTournament(Tournament64KB()) }},
	{"yags", "YAGS: choice PHT plus tagged exception caches (~64KB)",
		func() Predictor { return NewYAGS(YAGS64KB()) }},
	{"filter", "Chang et al. bias filter in front of a PHT (~64KB, §VII)",
		func() Predictor { return NewFilter(Filter64KB()) }},
	{"o-gehl", "O-GEHL: geometric history lengths, adder tree (~64KB)",
		func() Predictor { return NewGEHL(GEHL64KB()) }},
	{"bf-gehl", "extension: GEHL over the bias-free history (~64KB)",
		func() Predictor { return NewBFGEHL(BFGEHL64KB()) }},
	{"strided", "strided-sampling hashed perceptron (~64KB, §VII)",
		func() Predictor { return NewStrided(Strided64KB()) }},
	{"perceptron", "hashed perceptron, h=72, no folded history (Fig. 9 baseline)",
		func() Predictor { return NewPerceptron(Perceptron64KB()) }},
	{"perceptron-fhist", "hashed perceptron with folded-history indexing",
		func() Predictor {
			c := Perceptron64KB()
			c.FoldedHistory = true
			return NewPerceptron(c)
		}},
	{"oh-snap", "OH-SNAP-style scaled neural predictor (~64KB, Fig. 8)",
		func() Predictor { return NewOHSNAP(OHSNAP64KB()) }},
	{"bf-neural", "the paper's BF-Neural at 64KB (§VI-B)",
		func() Predictor { return NewBFNeural(BFNeural64KB()) }},
	{"bf-neural-32k", "BF-Neural at 32KB (§VI-B)",
		func() Predictor { return NewBFNeural(BFNeural32KB()) }},
	{"bf-neural-fweights", "Fig. 9 ablation: BST-gated weights, unfiltered history",
		func() Predictor { return NewBFNeural(BFNeuralAblation(BFModeFilterWeights)) }},
	{"bf-neural-ghist", "Fig. 9 ablation: bias-free history, no recency stack",
		func() Predictor { return NewBFNeural(BFNeuralAblation(BFModeBiasFreeGHR)) }},
	{"bf-neural-ahead", "§VIII ahead-pipelined BF-Neural (history-only indexing)",
		func() Predictor { return NewBFNeural(BFNeuralAhead()) }},
}

// aliases maps accepted alternate spellings to canonical registry names.
var aliases = map[string]string{
	"bf-neural-64kb": "bf-neural",
	"bf-neural-32kb": "bf-neural-32k",
}

// families are the table-count-parameterised TAGE constructors: each
// expands to prefix-N for N in [lo, hi].
var families = []struct {
	prefix      string
	lo, hi      int
	description string
	mk          func(n int) Predictor
}{
	{"bf-isl-tage-", 4, 10, "the paper's BF-ISL-TAGE with %d tagged tables (Fig. 10)",
		func(n int) Predictor { return NewBFTAGE(BFISLTAGE(n)) }},
	{"bf-tage-", 4, 10, "BF-TAGE with %d tagged tables, no SC/IUM",
		func(n int) Predictor { return NewBFTAGE(BFTAGEBare(n)) }},
	{"isl-tage-", 4, 15, "ISL-TAGE with %d tagged tables (loop pred, SC, IUM)",
		func(n int) Predictor { return NewTAGE(ISLTAGE(n)) }},
	{"tage-", 1, 15, "TAGE with %d tagged tables and loop predictor (Fig. 8)",
		func(n int) Predictor { return NewTAGE(TAGEBare(n)) }},
}

// Predictors returns the full registry — every fixed constructor plus
// the expanded TAGE families — in reporting order. Entries construct
// fresh instances on every New call.
func Predictors() []PredictorInfo {
	out := append([]PredictorInfo(nil), fixedRegistry...)
	for _, f := range families {
		for n := f.lo; n <= f.hi; n++ {
			nn := n
			out = append(out, PredictorInfo{
				Name:        f.prefix + strconv.Itoa(nn),
				Description: fmt.Sprintf(f.description, nn),
				New:         func() Predictor { return f.mk(nn) },
			})
		}
	}
	return out
}

// PredictorByName resolves a registry name (or alias such as
// "bf-neural-64kb") to its entry. Family names parse their table count,
// so any in-range "tage-N" / "isl-tage-N" / "bf-tage-N" /
// "bf-isl-tage-N" resolves without enumerating the registry.
func PredictorByName(name string) (PredictorInfo, error) {
	if canon, ok := aliases[name]; ok {
		name = canon
	}
	for _, p := range fixedRegistry {
		if p.Name == name {
			return p, nil
		}
	}
	// Longest-prefix family match ("bf-isl-tage-" before "tage-").
	for _, f := range families {
		if !strings.HasPrefix(name, f.prefix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(name, f.prefix))
		if err != nil || n < f.lo || n > f.hi {
			return PredictorInfo{}, fmt.Errorf("bfbp: %q needs a table count in [%d,%d]", name, f.lo, f.hi)
		}
		nn := n
		return PredictorInfo{
			Name:        name,
			Description: fmt.Sprintf(f.description, nn),
			New:         func() Predictor { return f.mk(nn) },
		}, nil
	}
	return PredictorInfo{}, fmt.Errorf("bfbp: unknown predictor %q", name)
}
