package obs

import (
	"math"
	"slices"
	"sync"
)

// Summary keeps every observation of a low-rate series, such as one per
// finished matrix cell, and reports exact order statistics when
// scraped. It costs 8 bytes per sample, so it suits series observed
// thousands of times, not per branch. Observe on a nil *Summary is a
// no-op, like every other obs metric.
type Summary struct {
	mu      sync.Mutex
	samples []float64
	sum     float64 // in observation order
}

// Observe records one sample. NaN is dropped.
func (s *Summary) Observe(v float64) {
	if s == nil || math.IsNaN(v) {
		return
	}
	s.mu.Lock()
	s.samples = append(s.samples, v)
	s.sum += v
	s.mu.Unlock()
}

// quantiles returns the sample count, the sum and, for each q in qs,
// the sample at rank ceil(q*n) clamped to [1, n] (0 when empty).
func (s *Summary) quantiles(qs []float64) (count uint64, sum float64, out []float64) {
	out = make([]float64, len(qs))
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.samples)
	if n == 0 {
		return 0, 0, out
	}
	slices.Sort(s.samples)
	for i, q := range qs {
		r := min(max(int(math.Ceil(q*float64(n))), 1), n)
		out[i] = s.samples[r-1]
	}
	return uint64(n), s.sum, out
}

// exportQuantiles are the quantile points of the Prometheus summary.
var exportQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// exportQuantileLabels are the Prometheus quantile label values,
// parallel to exportQuantiles.
var exportQuantileLabels = []string{"0.5", "0.9", "0.99", "0.999"}
