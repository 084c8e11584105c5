package obs

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bfbp/internal/rng"
)

// exactQuantile returns the order statistic at rank ceil(q*n) of a
// sorted sample — the definition a Summary reports.
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

// The exported summary is exact: on random samples spanning negatives,
// zeros, sub-nanosecond and above-2^14 values, every quantile line of
// the Prometheus text is the sorted sample at rank ceil(q*n), _sum is
// the sum in observation order and _count the sample count.
func TestSummaryExactQuantiles(t *testing.T) {
	r := rng.New(0x5a3e)
	draws := []func() float64{
		func() float64 { return -1e3 * r.Float64() },
		func() float64 { return 0 },
		func() float64 { return 1e-12 * r.Float64() },
		func() float64 { return 1e-6 * (1 + r.Float64()) },
		func() float64 { return math.Ldexp(1+r.Float64(), 14+int(r.Uint64()%20)) },
		func() float64 { return float64(r.Uint64()%7) - 3 },
	}
	for _, n := range []int{1, 2, 7, 100, 1000, 4099} {
		reg := NewRegistry()
		h := reg.QuantileFamily("t_seconds", "", "k").With("a")
		vals := make([]float64, n)
		var sum float64
		for i := range vals {
			vals[i] = draws[r.Uint64()%uint64(len(draws))]()
			sum += vals[i]
			h.Observe(vals[i])
		}
		sort.Float64s(vals)
		var prom strings.Builder
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{"t_seconds_sum{k=\"a\"}": sum, "t_seconds_count{k=\"a\"}": float64(n)}
		for i, q := range exportQuantiles {
			want[`t_seconds{k="a",quantile="`+exportQuantileLabels[i]+`"}`] = exactQuantile(vals, q)
		}
		got := map[string]float64{}
		for _, line := range strings.Split(strings.TrimSpace(prom.String()), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			name, val, _ := strings.Cut(line, " ")
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("n=%d: line %q: %v", n, line, err)
			}
			got[name] = v
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: exported %d series, want %d:\n%s", n, len(got), len(want), prom.String())
		}
		for name, w := range want {
			if g, ok := got[name]; !ok || g != w {
				t.Errorf("n=%d: %s = %v, want %v", n, name, g, w)
			}
		}
	}
}

// Every quantile a summary reports, at any q, is the exact sorted order
// statistic — on uniform, exponential, log-uniform, and adversarial
// (constant, two-point, power-of-two, heavy-tie) distributions.
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
		// Log-uniform across 12 decades.
		"log-uniform": func() float64 { return math.Pow(10, -9+12*r.Float64()) },
		// One repeated value.
		"constant": func() float64 { return 3.14159e-4 },
		// Two spikes far apart; quantiles snap between them.
		"two-point": func() float64 {
			if r.Float64() < 0.3 {
				return 1e-6
			}
			return 1e2
		},
		// Exact powers of two.
		"pow2-boundaries": func() float64 { return math.Ldexp(1, -20+int(r.Uint64()%30)) },
		// Heavy ties among a handful of values.
		"heavy-ties": func() float64 { return float64(1+r.Uint64()%5) * 1e-5 },
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			h := &Summary{}
			vals := make([]float64, 20_000)
			for i := range vals {
				vals[i] = draw()
				h.Observe(vals[i])
			}
			sort.Float64s(vals)
			for _, q := range qs {
				if got, want := h.Quantile(q), exactQuantile(vals, q); got != want {
					t.Errorf("q=%v: got %v, want exact %v", q, got, want)
				}
			}
		})
	}
}

// Negative, zero, tiny and huge samples are kept as they are; NaN is
// dropped.
func TestQuantileOutOfRange(t *testing.T) {
	h := &Summary{}
	h.Observe(0)
	h.Observe(-5)
	h.Observe(1e-12)
	h.Observe(1e9)
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got := h.Quantile(0.01); got != -5 {
		t.Fatalf("lowest quantile = %v, want -5", got)
	}
	if got := h.Quantile(1); got != 1e9 {
		t.Fatalf("highest quantile = %v, want 1e9", got)
	}
	h.Observe(math.NaN())
	if h.Count() != 4 {
		t.Fatalf("NaN was counted: %d", h.Count())
	}
}

func TestQuantileEmptyAndNil(t *testing.T) {
	var nilH *Summary
	nilH.Observe(1) // no panic
	if nilH.Count() != 0 || nilH.Sum() != 0 || nilH.Quantile(0.5) != 0 {
		t.Fatal("nil summary must be inert")
	}
	h := &Summary{}
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty summary must report zeros")
	}
}

// Observers and a scraper share one summary; under -race this checks
// that the scrape's in-place sort is ordered against every append.
func TestQuantileConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Quantile("c_seconds", "")
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
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
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

	// Quantiles are exact order statistics of 1..1000 µs.
	us := func(i int) float64 { return float64(i) * 1e-6 }
	if p50, p999 := q.Quantile(0.5), q.Quantile(0.999); p50 != us(500) || p999 != us(999) {
		t.Errorf("p50 %v, p999 %v, want %v and %v", p50, p999, us(500), us(999))
	}
	// Nil family handles are inert.
	var nq *QuantileFamily
	var ng *GaugeFamily
	if nq.With("x") != nil || ng.With("x") != nil {
		t.Fatal("nil families must resolve nil handles")
	}
}
