package obs

import (
	"math"
	"sync/atomic"
)

// QuantileHistogram is an HDR-style log-linear histogram with bounded
// relative error, built for latency and duration instruments where the
// interesting numbers are p50/p99/p999 rather than fixed bucket counts.
//
// Layout: the value range [2^quantMinExp, 2^quantMaxExp) is split into
// powers of two ("octaves"), and each octave into quantSub linear
// sub-buckets. The bucket index comes straight out of the float64 bit
// pattern — exponent bits select the octave, the top mantissa bits
// select the sub-bucket — so Observe is branch-light and lock-free:
// one atomic bucket add plus CAS updates of sum/min/max.
//
// Accuracy: a quantile estimate is the midpoint of the bucket holding
// the rank-selected sample, clamped into [Min, Max], so for values
// inside the covered range the estimate is within 1/(2·quantSub) =
// 1.5625% of the exact order statistic. Values
// below the range land in an underflow bucket estimated as the exact
// tracked Min; values at or above the top land in an overflow bucket
// estimated as the exact tracked Max. The property test in
// quantile_test.go holds the bound against exact sorted quantiles on
// random and adversarial distributions.
//
// All methods are nil-safe, like every other obs metric.
type QuantileHistogram struct {
	counts [quantBuckets]atomic.Uint64
	under  atomic.Uint64
	over   atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	min    atomic.Uint64 // float64 bits, CAS-updated (init +Inf)
	max    atomic.Uint64 // float64 bits, CAS-updated (init -Inf)
}

// Log-linear layout: 32 sub-buckets per octave over 2^-30 (~0.93ns as
// seconds) .. 2^14 (16384s), wide enough for every duration instrument
// in the tree, at 44*32 = 1408 buckets (~11KB) per histogram.
const (
	quantSubBits = 5
	quantSub     = 1 << quantSubBits
	quantMinExp  = -30
	quantMaxExp  = 14
	quantBuckets = (quantMaxExp - quantMinExp) * quantSub
)

// quantLo is the smallest in-range value, 2^quantMinExp.
var quantLo = math.Ldexp(1, quantMinExp)

// quantHi is the first out-of-range value, 2^quantMaxExp.
var quantHi = math.Ldexp(1, quantMaxExp)

// NewQuantileHistogram returns an empty quantile histogram. Most
// callers get them from Registry.Quantile / Registry.QuantileFamily.
func NewQuantileHistogram() *QuantileHistogram {
	h := &QuantileHistogram{}
	h.min.Store(math.Float64bits(math.Inf(+1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// quantIndex maps an in-range value to its bucket. v must satisfy
// quantLo <= v < quantHi (such values are normal floats, so the
// exponent field is usable directly).
func quantIndex(v float64) int {
	bits := math.Float64bits(v)
	exp := int(bits>>52&0x7ff) - 1023
	sub := int(bits >> (52 - quantSubBits) & (quantSub - 1))
	return (exp-quantMinExp)*quantSub + sub
}

// quantMid returns the midpoint of bucket i — the estimate reported
// for any sample counted there.
func quantMid(i int) float64 {
	exp := quantMinExp + i/quantSub
	sub := i % quantSub
	return math.Ldexp(1+(float64(sub)+0.5)/quantSub, exp)
}

// Observe records one sample. NaN is dropped; negative, zero, and
// sub-range values count in the underflow bucket, values at or above
// 2^quantMaxExp in the overflow bucket.
func (h *QuantileHistogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	switch {
	case v < quantLo:
		h.under.Add(1)
	case v >= quantHi:
		h.over.Add(1)
	default:
		h.counts[quantIndex(v)].Add(1)
	}
	h.count.Add(1)
	casAddFloat(&h.sum, v)
	casMinFloat(&h.min, v)
	casMaxFloat(&h.max, v)
}

// Count returns the number of observations.
func (h *QuantileHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *QuantileHistogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Min returns the exact smallest observation (0 when empty).
func (h *QuantileHistogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.min.Load())
}

// Max returns the exact largest observation (0 when empty).
func (h *QuantileHistogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// quantiles resolves several quantiles from one pass over the bucket
// counts, so exported p50/p90/p99/p999 come from a single snapshot.
// qs must be ascending.
func (h *QuantileHistogram) quantiles(qs []float64) []float64 {
	out := make([]float64, len(qs))
	n := h.count.Load()
	if n == 0 {
		return out
	}
	min, max := h.Min(), h.Max()
	clamp := func(v float64) float64 {
		if v < min {
			return min
		}
		if v > max {
			return max
		}
		return v
	}
	// rank(q) = ceil(q*n) clamped to [1, n], 1-based.
	rank := func(q float64) uint64 {
		r := uint64(math.Ceil(q * float64(n)))
		if r < 1 {
			r = 1
		}
		if r > n {
			r = n
		}
		return r
	}
	qi := 0
	cum := h.under.Load()
	for qi < len(qs) && rank(qs[qi]) <= cum {
		out[qi] = min // underflow samples: the exact min is the best estimate
		qi++
	}
	for i := 0; i < quantBuckets && qi < len(qs); i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		for qi < len(qs) && rank(qs[qi]) <= cum {
			out[qi] = clamp(quantMid(i))
			qi++
		}
	}
	for ; qi < len(qs); qi++ {
		out[qi] = max // overflow samples: the exact max
	}
	return out
}

// QuantileSnapshot is a point-in-time read of a quantile histogram.
type QuantileSnapshot struct {
	Count               uint64
	Sum, Min, Max       float64
	P50, P90, P99, P999 float64
}

// exportQuantiles are the quantile points of the Prometheus summary.
var exportQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// exportQuantileLabels are the Prometheus quantile label values,
// parallel to exportQuantiles.
var exportQuantileLabels = []string{"0.5", "0.9", "0.99", "0.999"}

// Snapshot reads count, sum, min, max, and the exported quantile set.
func (h *QuantileHistogram) Snapshot() QuantileSnapshot {
	if h == nil {
		return QuantileSnapshot{}
	}
	v := h.quantiles(exportQuantiles)
	return QuantileSnapshot{
		Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
		P50: v[0], P90: v[1], P99: v[2], P999: v[3],
	}
}

// casAddFloat adds v to the float64 bits stored in a.
func casAddFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// casMinFloat lowers the float64 bits stored in a to v if smaller.
func casMinFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// casMaxFloat raises the float64 bits stored in a to v if larger.
func casMaxFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
