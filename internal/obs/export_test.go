package obs

// Quantile registers (or returns) an unlabeled summary, exported as a
// Prometheus summary with p50/p90/p99/p999 series.
func (r *Registry) Quantile(name, help string) *Summary {
	return r.family(name, help, summaryKind, nil).get(nil).summary
}

// Quantile returns the sample at rank ceil(q*n), 0 <= q <= 1, the
// order statistic the exported quantiles report. Returns 0 when empty.
func (s *Summary) Quantile(q float64) float64 {
	if s == nil {
		return 0
	}
	_, _, out := s.quantiles([]float64{q})
	return out[0]
}

// Count returns the number of observations.
func (s *Summary) Count() uint64 {
	if s == nil {
		return 0
	}
	n, _, _ := s.quantiles(nil)
	return n
}

// Sum returns the sum of the observations, in observation order.
func (s *Summary) Sum() float64 {
	if s == nil {
		return 0
	}
	_, sum, _ := s.quantiles(nil)
	return sum
}
