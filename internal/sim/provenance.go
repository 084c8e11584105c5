package sim

import "sort"

// Decision provenance: optional per-prediction introspection. Predictors
// that implement Explainer expose which internal component supplied each
// prediction and how confident it was; the harness's decision-trace
// recorder (Options.Explain) turns that into a misprediction taxonomy
// and component/bank attribution tables. The paper's claims are
// structural — bias-free filtering changes *which* component predicts
// (longer TAGE banks hit, perceptron weights stop being wasted on biased
// branches) — and this layer is what makes those claims observable
// rather than inferred from aggregate MPKI.

// Explainer is implemented by predictors that can describe their most
// recent prediction. Explain reports the provenance of the newest
// in-flight (predicted, not yet updated) prediction for pc; when none is
// pending it falls back to a fresh lookup describing what the predictor
// would answer right now. Explain must be side-effect free: it must not
// train state, consume checkpoints, or perturb any counter that feeds
// Stats.
type Explainer interface {
	Explain(pc uint64) Provenance
}

// Provenance describes how a predictor arrived at one prediction.
// Which fields are meaningful depends on the family: TAGE-class
// predictors set Banks/Provider/Alt, adder-tree predictors set
// Threshold/TopWeights, bias-free cores set BiasState.
type Provenance struct {
	// Predictor is the reporting predictor's name.
	Predictor string `json:"predictor"`
	// Component names the structure that supplied the final direction:
	// "base", "tagged", "sc", "loop", "perceptron", "adder",
	// "bias-filter".
	Component string `json:"component"`
	// Prediction is the final predicted direction.
	Prediction bool `json:"prediction"`
	// Confidence is the decision strength in component-specific units:
	// |2*ctr+1| for counter components, |sum| for adder trees, 1 for
	// base/filter decisions.
	Confidence int32 `json:"confidence"`
	// Threshold is the training threshold the confidence is measured
	// against (theta for adder trees; 0 where none applies).
	Threshold int32 `json:"threshold"`

	// TAGE family (meaningful when Banks > 0): provider table index
	// (-1 = base bimodal), alternate provider, the provider entry's
	// counter and useful bit, both component predictions, and whether
	// the provider entry was newly allocated.
	Banks          int  `json:"banks,omitempty"`
	Provider       int  `json:"provider,omitempty"`
	Alt            int  `json:"alt,omitempty"`
	ProviderCtr    int8 `json:"provider_ctr,omitempty"`
	ProviderUseful bool `json:"provider_useful,omitempty"`
	ProviderPred   bool `json:"provider_pred,omitempty"`
	AltPred        bool `json:"alt_pred,omitempty"`
	NewlyAllocated bool `json:"newly_allocated,omitempty"`

	// TopWeights are the largest-magnitude signed contributions to an
	// adder-tree sum, strongest first (positive pushes toward taken).
	TopWeights []WeightContrib `json:"top_weights,omitempty"`

	// BiasState is the branch's BST classification at predict time
	// ("NotFound", "Taken", "NotTaken", "NonBiased"; "" for predictors
	// without a bias filter). FilterDecision reports that the direction
	// came from the bias filter itself — the biased-skip path — rather
	// than the main prediction structure.
	BiasState      string `json:"bias_state,omitempty"`
	FilterDecision bool   `json:"filter_decision,omitempty"`
}

// WeightContrib is one signed contribution to an adder-tree sum.
// Position is component-defined: a history position for perceptron-style
// tables (positions past the unfiltered depth index the recency stack in
// BF-Neural), a table index for GEHL-style trees. Weight is the signed
// contribution toward taken.
type WeightContrib struct {
	Position int   `json:"position"`
	Weight   int32 `json:"weight"`
}

// TopWeightContribs sorts contributions by descending magnitude
// (position-ascending on ties) and truncates to n. Helper for Explain
// implementations.
func TopWeightContribs(ws []WeightContrib, n int) []WeightContrib {
	sort.Slice(ws, func(i, j int) bool {
		ai, aj := abs32(ws[i].Weight), abs32(ws[j].Weight)
		if ai != aj {
			return ai > aj
		}
		return ws[i].Position < ws[j].Position
	})
	if n < len(ws) {
		ws = ws[:n]
	}
	return ws
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// Misprediction-cause taxonomy. Every post-warmup misprediction of an
// explained run is classified into exactly one cause, checked in the
// order below (first match wins).
const (
	// CauseColdSite: the site had been seen fewer than coldSiteOccurrences
	// times, or the bias filter had never seen it (BST NotFound) — the
	// predictor had nothing to work with yet.
	CauseColdSite = "cold_site"
	// CauseBiasTransition: the bias filter supplied the direction and the
	// outcome disagreed — the branch just revealed itself as non-biased.
	CauseBiasTransition = "bias_transition"
	// CauseTagConflict: a TAGE provider matched on a newly-allocated
	// entry — an alias or a half-trained allocation.
	CauseTagConflict = "tag_conflict"
	// CauseLowConfidence: the decision was below the training threshold
	// (adder trees) or on a weak counter.
	CauseLowConfidence = "low_confidence"
	// CauseProviderAlt: provider and alternate prediction disagreed and
	// the selected one was wrong.
	CauseProviderAlt = "provider_alt"
	// CauseOther: none of the above.
	CauseOther = "other"
)

// Causes lists the taxonomy in classification order.
func Causes() []string {
	return []string{CauseColdSite, CauseBiasTransition, CauseTagConflict,
		CauseLowConfidence, CauseProviderAlt, CauseOther}
}

// coldSiteOccurrences is the per-site occurrence count below which a
// misprediction is classified cold.
const coldSiteOccurrences = 16

// classifyCause maps one misprediction's provenance (plus the site's
// prior occurrence count, warmup included) to its taxonomy cause.
func classifyCause(prov *Provenance, priorSeen uint64) string {
	switch {
	case prov.BiasState == "NotFound" || priorSeen < coldSiteOccurrences:
		return CauseColdSite
	case prov.FilterDecision:
		return CauseBiasTransition
	case prov.Banks > 0 && prov.Provider >= 0 && prov.NewlyAllocated:
		return CauseTagConflict
	case prov.Threshold > 0 && prov.Confidence < prov.Threshold:
		return CauseLowConfidence
	case prov.Banks > 0 && (prov.Component == "tagged" || prov.Component == "base") && prov.Confidence <= 1:
		return CauseLowConfidence
	case prov.Banks > 0 && prov.Provider >= 0 && prov.ProviderPred != prov.AltPred:
		return CauseProviderAlt
	default:
		return CauseOther
	}
}

// MarginBounds are the fixed bucket upper bounds of the confidence-margin
// histogram (margin = Confidence - Threshold; negative means the decision
// was below its training threshold) that ProvenanceStats.MarginCounts
// and the provenance journal event's margin_counts share.
func MarginBounds() []float64 {
	return []float64{-64, -32, -16, -8, -4, -2, 0, 2, 4, 8, 16, 32, 64}
}

func marginBucket(margin float64) int {
	bounds := MarginBounds()
	i := 0
	for i < len(bounds) && margin > bounds[i] {
		i++
	}
	return i
}

// ComponentStat counts predictions attributed to one component.
type ComponentStat struct {
	Predictions uint64 `json:"predictions"`
	Mispredicts uint64 `json:"mispredicts"`
}

// MissRate returns the component's misprediction rate.
func (c ComponentStat) MissRate() float64 {
	if c.Predictions == 0 {
		return 0
	}
	return float64(c.Mispredicts) / float64(c.Predictions)
}

// ProvenanceStats aggregates the decision trace of one run: every
// post-warmup prediction attributed to its supplying component (and
// provider bank for TAGE-class predictors), every misprediction
// classified into the cause taxonomy, and its confidence margin.
// Collected into Stats.Provenance when Options.Explain is set and the
// predictor implements Explainer; nil otherwise.
type ProvenanceStats struct {
	// Explained counts the post-warmup branches attributed.
	Explained uint64 `json:"explained"`
	// Causes counts mispredictions by taxonomy cause.
	Causes map[string]uint64 `json:"causes"`
	// Components counts predictions by supplying component.
	Components map[string]*ComponentStat `json:"components"`
	// BankHits/BankMisses attribute predictions to provider banks for
	// TAGE-class predictors: index 0 is the base, i the i-th tagged
	// table. Nil for predictors without banks.
	BankHits   []uint64 `json:"bank_hits,omitempty"`
	BankMisses []uint64 `json:"bank_misses,omitempty"`
	// MarginSamples counts the margins recorded, one per explained
	// branch; MarginCounts buckets them by MarginBounds (one extra
	// overflow bucket).
	MarginSamples uint64   `json:"margin_samples"`
	MarginCounts  []uint64 `json:"margin_counts"`
}

// NewProvenanceStats returns an empty aggregate.
func NewProvenanceStats() *ProvenanceStats {
	return &ProvenanceStats{
		Causes:       make(map[string]uint64),
		Components:   make(map[string]*ComponentStat),
		MarginCounts: make([]uint64, len(MarginBounds())+1),
	}
}

// Mispredicts sums the cause counts.
func (pv *ProvenanceStats) Mispredicts() uint64 {
	var n uint64
	for _, c := range pv.Causes {
		n += c
	}
	return n
}

// decisionTrace is the harness-side recorder: one Explain call per
// post-warmup branch, whose margin it also buckets, and a per-site
// occurrence map for cold-site classification.
type decisionTrace struct {
	ex   Explainer
	pv   *ProvenanceStats
	seen map[uint64]uint64
}

func newDecisionTrace(ex Explainer) *decisionTrace {
	return &decisionTrace{
		ex:   ex,
		pv:   NewProvenanceStats(),
		seen: make(map[uint64]uint64),
	}
}

// warm counts a warmup occurrence so cold-site classification sees the
// branches the predictor trained on.
func (dt *decisionTrace) warm(pc uint64) { dt.seen[pc]++ }

// record attributes one post-warmup prediction.
func (dt *decisionTrace) record(pc uint64, miss bool) {
	prior := dt.seen[pc]
	dt.seen[pc] = prior + 1
	prov := dt.ex.Explain(pc)
	dt.pv.Explained++
	cs := dt.pv.Components[prov.Component]
	if cs == nil {
		cs = &ComponentStat{}
		dt.pv.Components[prov.Component] = cs
	}
	cs.Predictions++
	if prov.Banks > 0 {
		for len(dt.pv.BankHits) < prov.Banks+1 {
			dt.pv.BankHits = append(dt.pv.BankHits, 0)
			dt.pv.BankMisses = append(dt.pv.BankMisses, 0)
		}
		bank := prov.Provider + 1 // -1 (base) maps to 0
		if bank >= 0 && bank < len(dt.pv.BankHits) {
			dt.pv.BankHits[bank]++
			if miss {
				dt.pv.BankMisses[bank]++
			}
		}
	}
	if miss {
		cs.Mispredicts++
		dt.pv.Causes[classifyCause(&prov, prior)]++
	}
	dt.pv.MarginSamples++
	dt.pv.MarginCounts[marginBucket(float64(prov.Confidence-prov.Threshold))]++
}
