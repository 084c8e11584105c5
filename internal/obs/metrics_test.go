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
		t.Fatalf("gauge = %v, want 4", g.Value())
	}
	g.Add(0.25)
	if g.Value() != 4.25 {
		t.Fatalf("gauge = %v, want 4.25", g.Value())
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Inc()
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	var cf *CounterFamily
	var gf *GaugeFamily
	cf.With("x").Inc()
	gf.With("x").Set(1)
}

func TestFamiliesResolveSeries(t *testing.T) {
	r := NewRegistry()
	cf := r.CounterFamily("runs_total", "runs by status", "status")
	cf.With("ok").Add(3)
	cf.With("error").Inc()
	if cf.With("ok").Value() != 3 || cf.With("error").Value() != 1 {
		t.Fatal("family series not independent")
	}
	gf := r.GaugeFamily("occupancy", "live fraction", "bank")
	gf.With("T0").Set(0.5)
	gf.With("T1").Set(0.25)
	if gf.With("T0").Value() != 0.5 || gf.With("T1").Value() != 0.25 {
		t.Fatal("gauge family series not independent")
	}
}

func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	g := r.Gauge("g", "")
	cf := r.CounterFamily("lab_total", "", "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				cf.With("a").Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 || cf.With("a").Value() != 8000 {
		t.Fatalf("lost updates: c=%d g=%v lab=%d", c.Value(), g.Value(), cf.With("a").Value())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("bfbp_runs_total", "completed runs").Add(2)
	r.Gauge("bfbp_busy_workers", "busy workers").Set(3)
	r.CounterFamily("bfbp_by_status_total", "runs by status", "status").With(`we"ird`).Inc()
	r.GaugeFamily("bfbp_occupancy", "live fraction", "bank").With("T0").Set(0.375)

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
# HELP bfbp_occupancy live fraction
# TYPE bfbp_occupancy gauge
bfbp_occupancy{bank="T0"} 0.375
# HELP bfbp_runs_total completed runs
# TYPE bfbp_runs_total counter
bfbp_runs_total 2
`
	if got != want {
		t.Fatalf("prometheus text mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// Gauges hold float64s but most of them count things, so a whole
// value exports as an integer, the way an int64 gauge's %d did.
func TestFormatFloatWholeNumbers(t *testing.T) {
	for v, want := range map[float64]string{
		0: "0", 8: "8", -3: "-3", 1e6: "1000000", 123456789: "123456789",
		0.375: "0.375", 1.5e-7: "1.5e-07", 1e300: "1e+300", math.Inf(+1): "+Inf",
	} {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
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
