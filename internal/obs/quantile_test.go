package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"bfbp/internal/rng"
)

// exactQuantile returns the order statistic at rank ceil(q*n) of a
// sorted sample — the definition QuantileHistogram estimates.
func exactQuantile(sorted []float64, q float64) float64 {
	r := int(math.Ceil(q * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	if r > len(sorted) {
		r = len(sorted)
	}
	return sorted[r-1]
}

// The central accuracy property: for values inside the covered range,
// every estimated quantile is within QuantileRelError of the exact
// sorted order statistic — on uniform, exponential, log-uniform,
// and adversarial (constant, two-point, bucket-boundary, heavy-tie)
// distributions.
func TestQuantileAccuracyBound(t *testing.T) {
	qs := []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1}
	r := rng.New(0xbf57a7)
	uniform := func(lo, hi float64) func() float64 {
		return func() float64 { return lo + (hi-lo)*r.Float64() }
	}
	dists := map[string]func() float64{
		// Latency-shaped: microseconds to milliseconds.
		"uniform-us": uniform(1e-6, 1e-3),
		// Exponential with 100ns mean — dense near zero, long tail.
		"exponential": func() float64 { return -1e-7 * math.Log(1-r.Float64()) },
		// Log-uniform across 12 decades: every octave populated.
		"log-uniform": func() float64 { return math.Pow(10, -9+12*r.Float64()) },
		// Adversarial: one repeated value; estimates must still land
		// within the bound of that value.
		"constant": func() float64 { return 3.14159e-4 },
		// Adversarial: two spikes far apart; quantiles snap between them.
		"two-point": func() float64 {
			if r.Float64() < 0.3 {
				return 1e-6
			}
			return 1e2
		},
		// Adversarial: exact powers of two sit on bucket boundaries.
		"pow2-boundaries": func() float64 { return math.Ldexp(1, -20+int(r.Uint64()%30)) },
		// Adversarial: heavy ties among a handful of values.
		"heavy-ties": func() float64 { return float64(1+r.Uint64()%5) * 1e-5 },
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			h := NewQuantileHistogram()
			vals := make([]float64, 20_000)
			for i := range vals {
				vals[i] = draw()
				h.Observe(vals[i])
			}
			sort.Float64s(vals)
			for _, q := range qs {
				got := h.Quantile(q)
				want := exactQuantile(vals, q)
				if err := math.Abs(got-want) / want; err > QuantileRelError+1e-12 {
					t.Errorf("q=%v: estimate %v vs exact %v, rel error %.4f > bound %.4f",
						q, got, want, err, QuantileRelError)
				}
			}
			if h.Min() != vals[0] || h.Max() != vals[len(vals)-1] {
				t.Errorf("min/max not exact: got %v/%v want %v/%v",
					h.Min(), h.Max(), vals[0], vals[len(vals)-1])
			}
		})
	}
}

// Out-of-range samples fall back to the exact min/max estimates rather
// than violating the error bound silently.
func TestQuantileOutOfRange(t *testing.T) {
	h := NewQuantileHistogram()
	h.Observe(0)     // underflow
	h.Observe(-5)    // underflow
	h.Observe(1e-12) // underflow
	h.Observe(1e9)   // overflow
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got := h.Quantile(0.01); got != -5 {
		t.Fatalf("underflow quantile = %v, want exact min -5", got)
	}
	if got := h.Quantile(1); got != 1e9 {
		t.Fatalf("overflow quantile = %v, want exact max 1e9", got)
	}
	h.Observe(math.NaN()) // dropped
	if h.Count() != 4 {
		t.Fatalf("NaN was counted: %d", h.Count())
	}
}

func TestQuantileEmptyAndNil(t *testing.T) {
	var nilH *QuantileHistogram
	nilH.Observe(1) // no panic
	if nilH.Count() != 0 || nilH.Sum() != 0 || nilH.Quantile(0.5) != 0 || nilH.Min() != 0 || nilH.Max() != 0 {
		t.Fatal("nil histogram must be inert")
	}
	if s := nilH.Snapshot(); s.Count != 0 {
		t.Fatal("nil snapshot not zero")
	}
	h := NewQuantileHistogram()
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestQuantileConcurrentObserve(t *testing.T) {
	h := NewQuantileHistogram()
	var wg sync.WaitGroup
	const workers, per = 8, 10_000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < per; i++ {
				h.Observe(1e-6 * (1 + r.Float64()))
			}
		}(uint64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	p50 := h.Quantile(0.5)
	if p50 < 1e-6 || p50 > 2e-6 {
		t.Fatalf("p50 = %v outside the observed range", p50)
	}
}

// Registry round-trip: quantile families and fractional gauges register,
// resolve, and export as Prometheus text.
func TestRegistryQuantileAndFloatGauge(t *testing.T) {
	reg := NewRegistry()
	q := reg.Quantile("test_latency_seconds", "test latencies")
	for i := 1; i <= 1000; i++ {
		q.Observe(float64(i) * 1e-6)
	}
	qf := reg.QuantileFamily("test_run_seconds", "per-thing durations", "thing")
	qf.With("a").Observe(0.5)
	reg.GaugeFamily("test_ratio", "a float gauge").With().Set(0.625)
	gf := reg.GaugeFamily("test_pause_seconds", "paused", "q")
	gf.With("0.99").Set(0.001953125)

	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"# TYPE test_latency_seconds summary",
		`test_latency_seconds{quantile="0.5"}`,
		`test_latency_seconds{quantile="0.999"}`,
		"test_latency_seconds_count 1000",
		`test_run_seconds{thing="a",quantile="0.99"}`,
		"# TYPE test_ratio gauge",
		"test_ratio 0.625",
		`test_pause_seconds{q="0.99"} 0.001953125`,
	} {
		if !strings.Contains(prom.String(), frag) {
			t.Errorf("prometheus export missing %q:\n%s", frag, prom.String())
		}
	}

	// The snapshot behind the summary clamps to the exact extremes.
	if s := q.Snapshot(); s.Min != 1e-6 || s.Max != 1000e-6 || s.P999 > s.Max {
		t.Errorf("snapshot min %v max %v p999 %v, want min 1e-6, max 1e-3, p999 <= max", s.Min, s.Max, s.P999)
	}

	// Estimates honour the documented bound: p50 of 1..1000 µs is 500µs.
	if got, want := q.Quantile(0.5), 500e-6; math.Abs(got-want)/want > QuantileRelError {
		t.Fatalf("p50 = %v, want within %.4f of %v", got, QuantileRelError, want)
	}
	// Nil family handles are inert.
	var nq *QuantileFamily
	var ng *GaugeFamily
	if nq.With("x") != nil || ng.With("x") != nil {
		t.Fatal("nil families must resolve nil handles")
	}
}
