package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// muxFixture builds a registry exercising every metric shape behind the
// mux: unlabeled counter/gauge, a labeled family, and a summary.
func muxFixture() *Registry {
	r := NewRegistry()
	r.Counter("requests_total", "total requests").Add(7)
	r.Gauge("depth", "queue depth").Set(-3)
	r.CounterFamily("runs_total", "runs by status", "status").With("ok").Add(2)
	r.Quantile("latency_seconds", "latency").Observe(0.5)
	return r
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp, string(body)
}

// /metrics must serve the Prometheus text exposition format with the
// right content type: HELP/TYPE headers, labeled series, summary
// quantiles, _sum and _count.
func TestMetricsMuxPrometheusText(t *testing.T) {
	srv := httptest.NewServer(NewMux(muxFixture()))
	defer srv.Close()

	resp, body := get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q is not Prometheus text exposition", ct)
	}
	for _, frag := range []string{
		"# HELP requests_total total requests",
		"# TYPE requests_total counter",
		"requests_total 7",
		"depth -3",
		`runs_total{status="ok"} 2`,
		"# TYPE latency_seconds summary",
		`latency_seconds{quantile="0.5"} 0.5`,
		"latency_seconds_sum 0.5",
		"latency_seconds_count 1",
	} {
		if !strings.Contains(body, frag) {
			t.Errorf("/metrics missing %q:\n%s", frag, body)
		}
	}
}

// The pprof surface must be reachable: the index, the cmdline/symbol
// helpers, and a goroutine profile in debug mode.
func TestMetricsMuxPprofReachable(t *testing.T) {
	srv := httptest.NewServer(NewMux(muxFixture()))
	defer srv.Close()

	for path, frag := range map[string]string{
		"/debug/pprof/":                     "profiles",
		"/debug/pprof/cmdline":              "",
		"/debug/pprof/goroutine?debug=1":    "goroutine profile",
		"/debug/pprof/heap?debug=1":         "heap profile",
		"/debug/pprof/symbol?0x1":           "num_symbols",
		"/debug/pprof/threadcreate?debug=1": "threadcreate",
	} {
		resp, body := get(t, srv, path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
			continue
		}
		if frag != "" && !strings.Contains(body, frag) {
			t.Errorf("%s: body missing %q:\n%.200s", path, frag, body)
		}
	}
}

// Unknown paths, /debug/vars among them (the registry is served as
// Prometheus text only), must 404 rather than fall through to a
// handler.
func TestMetricsMuxUnknownPath(t *testing.T) {
	srv := httptest.NewServer(NewMux(muxFixture()))
	defer srv.Close()
	for _, path := range []string{"/nope", "/debug/vars"} {
		resp, _ := get(t, srv, path)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
