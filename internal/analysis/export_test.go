package analysis

// Rate returns the per-kind misprediction rate.
func (k KernelReport) Rate() float64 {
	if k.Branches == 0 {
		return 0
	}
	return float64(k.Mispredicts) / float64(k.Branches)
}

// Passed reports whether every check held.
func (s CapacityShape) Passed() bool {
	for _, c := range s.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}
