package obs

// QuantileRelError is the documented worst-case relative error of a
// quantile estimate for values inside the histogram's covered range.
const QuantileRelError = 1.0 / (2 * quantSub)

// Quantile registers (or returns) an unlabeled quantile histogram —
// the log-linear HDR-style instrument exported as a Prometheus summary
// with p50/p90/p99/p999 series.
func (r *Registry) Quantile(name, help string) *QuantileHistogram {
	return r.family(name, help, quantileKind, nil).get(nil).quant
}

// Quantile estimates the q-th quantile (0 <= q <= 1) as the value of
// the sample at rank ceil(q*n), within QuantileRelError of the exact
// order statistic for in-range values. Returns 0 when empty.
func (h *QuantileHistogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	qs := [1]float64{q}
	out := h.quantiles(qs[:])
	return out[0]
}
