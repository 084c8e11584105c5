package looppred

// Entries returns the total entry count.
func (p *Predictor) Entries() int { return p.ways * p.sets }
