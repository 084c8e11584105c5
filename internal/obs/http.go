package obs

import (
	"net/http"
	"net/http/pprof"
)

// NewMux returns an HTTP mux exposing the registry and the runtime
// profiler:
//
//	/metrics       Prometheus text exposition
//	/debug/pprof/  net/http/pprof index (profile, heap, trace, ...)
//
// The commands mount this on -metrics-addr so long suite runs can be
// scraped and live-profiled (go tool pprof http://addr/debug/pprof/profile).
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", PrometheusHandler(r))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// PrometheusHandler serves the registry in Prometheus text format.
func PrometheusHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
