package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateExportGolden = flag.Bool("update-export", false, "rewrite the export golden files")

// goldenRegistry builds one registry covering every metric kind with
// deterministic values, so the Prometheus export can be pinned to
// bytes: series and family ordering, float formatting (whole-number
// gauges print as integers) and summary quantile lines are all under
// guard.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("g_branches_total", "branches simulated").Add(123456)
	reg.CounterFamily("g_runs_total", "runs by status", "status").With("ok").Add(7)
	reg.CounterFamily("g_runs_total", "runs by status", "status").With("error").Add(1)
	reg.Gauge("g_workers", "worker count").Set(8)
	reg.GaugeFamily("g_ratio", "a plain float gauge").With().Set(0.375)
	gf := reg.GaugeFamily("g_pause_seconds", "runtime distribution points", "q")
	gf.With("0.5").Set(0.0009765625)
	gf.With("0.99").Set(0.001953125)
	q := reg.Quantile("g_latency_seconds", "a quantile summary")
	for i := 0; i < 100; i++ {
		q.Observe(0.0009918212890625)
	}
	qf := reg.QuantileFamily("g_run_seconds", "per-thing durations", "thing")
	qf.With("a").Observe(0.25390625)
	qf.With("b").Observe(2.03125)
	return reg
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateExportGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestExportGolden -update-export): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden bytes.\ngot:\n%s\nwant:\n%s\n(if the format change is intentional, rerun with -update-export and document it)", name, got, want)
	}
}

// The Prometheus text exposition is a public surface scraped by
// external tooling — any byte change is a deliberate format decision,
// not an accident of refactoring.
func TestExportGolden(t *testing.T) {
	reg := goldenRegistry()
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom.golden", prom.Bytes())
}
