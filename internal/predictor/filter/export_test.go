package filter

// Filtered reports whether pc is currently predicted by its bias.
func (p *Predictor) Filtered(pc uint64) bool {
	return p.filtered(p.fIndex(pc))
}
