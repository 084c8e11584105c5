package filter

// Filtered reports whether pc is currently predicted by its bias.
func (p *Predictor) Filtered(pc uint64) bool {
	e := &p.entries[p.fIndex(pc)]
	return e.valid && e.run.IsMax()
}
