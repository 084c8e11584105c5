package ohsnap

// HistoryLength returns the total history positions tracked.
func (p *Predictor) HistoryLength() int { return p.hlen }

// Coefficient exposes a position's scaling coefficient (for tests).
func (p *Predictor) Coefficient(i int) int32 { return p.coeff[i] }
