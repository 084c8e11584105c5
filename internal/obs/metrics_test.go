package obs

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Re-registration returns the same underlying metric.
	if r.Counter("c_total", "a counter").Value() != 5 {
		t.Fatal("re-registered counter lost its value")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Dec()
	g.Add(-2)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Inc()
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	var cf *CounterFamily
	var hf *HistogramFamily
	cf.With("x").Inc()
	hf.With("x").Observe(1)
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 50, 1000} {
		h.Observe(v)
	}
	bounds, counts := h.Snapshot()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("snapshot shape %d/%d", len(bounds), len(counts))
	}
	// 0.5 and 1 land in le=1; 2 in le=10; 50 in le=100; 1000 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-1053.5) > 1e-9 {
		t.Fatalf("sum = %v, want 1053.5", h.Sum())
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 4, 4)
	want := []float64{1e-6, 4e-6, 16e-6, 64e-6}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-15 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestFamiliesResolveSeries(t *testing.T) {
	r := NewRegistry()
	cf := r.CounterFamily("runs_total", "runs by status", "status")
	cf.With("ok").Add(3)
	cf.With("error").Inc()
	if cf.With("ok").Value() != 3 || cf.With("error").Value() != 1 {
		t.Fatal("family series not independent")
	}
	hf := r.HistogramFamily("lat", "latency", []float64{1}, "op")
	hf.With("predict").Observe(0.5)
	hf.With("update").Observe(2)
	if hf.With("predict").Count() != 1 || hf.With("update").Count() != 1 {
		t.Fatal("histogram family series not independent")
	}
}

func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	h := r.Histogram("h", "", []float64{0.5})
	cf := r.CounterFamily("lab_total", "", "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(1)
				cf.With("a").Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 || h.Sum() != 8000 || cf.With("a").Value() != 8000 {
		t.Fatalf("lost updates: c=%d h=%d sum=%v lab=%d", c.Value(), h.Count(), h.Sum(), cf.With("a").Value())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("bfbp_runs_total", "completed runs").Add(2)
	r.Gauge("bfbp_busy_workers", "busy workers").Set(3)
	r.CounterFamily("bfbp_by_status_total", "runs by status", "status").With(`we"ird`).Inc()
	h := r.Histogram("bfbp_run_seconds", "run wall time", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP bfbp_busy_workers busy workers
# TYPE bfbp_busy_workers gauge
bfbp_busy_workers 3
# HELP bfbp_by_status_total runs by status
# TYPE bfbp_by_status_total counter
bfbp_by_status_total{status="we\"ird"} 1
# HELP bfbp_run_seconds run wall time
# TYPE bfbp_run_seconds histogram
bfbp_run_seconds_bucket{le="0.1"} 1
bfbp_run_seconds_bucket{le="1"} 2
bfbp_run_seconds_bucket{le="+Inf"} 3
bfbp_run_seconds_sum 5.55
bfbp_run_seconds_count 3
# HELP bfbp_runs_total completed runs
# TYPE bfbp_runs_total counter
bfbp_runs_total 2
`
	if got != want {
		t.Fatalf("prometheus text mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "").Inc()
	srv := httptest.NewServer(NewMux(r))
	defer srv.Close()

	for path, frag := range map[string]string{
		"/metrics":      "hits_total 1",
		"/debug/pprof/": "profiles",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), frag) {
			t.Fatalf("%s: body missing %q:\n%s", path, frag, body)
		}
	}
}

func TestRedeclareKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r := NewRegistry()
	r.Counter("x", "")
	r.Gauge("x", "")
}
