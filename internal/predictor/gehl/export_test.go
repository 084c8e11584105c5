package gehl

// Histories exposes the per-table history lengths.
func (p *Predictor) Histories() []int { return append([]int(nil), p.hists...) }

// Theta exposes the adaptive threshold (for tests).
func (p *Predictor) Theta() int32 { return p.theta }
