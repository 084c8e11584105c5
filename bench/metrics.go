package main

// metric is one number the benchmark reports. End-to-end metrics carry
// the regression bound BENCHMARK.json fixes; per-layer metrics instead
// name the end-to-end metric they should move and the workloads where
// they should move it, so a later change can predict which rows of the
// ledger its claim rests on.
type metric struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end: share of the parent's median a regression may cost
	moves  string  // per-layer: end-to-end metric it should move, or "none"
	on     []string
}

// endToEnd are the metrics an untraced run (-trace 0) prints.
var endToEnd = []metric{
	{name: "branches_per_ref_s", unit: "1/ref_s", better: "higher", bound: 0.25},
	{name: "mpki", unit: "MPKI", better: "lower", bound: 0.25},
	{name: "alloc_bytes_per_branch", unit: "B/branch", better: "lower", bound: 0.05},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// The predictors the ledger times by name. Core metrics cover the
// bias-free designs; predictor metrics the baselines. The sampled set
// also gets predict/update latency quantiles.
var (
	corePredictors    = []string{"bf-tage-10", "bf-neural", "bf-gehl", "bf-isl-tage-10"}
	tablePredictors   = []string{"isl-tage-15", "tage-15", "oh-snap", "bimodal", "gshare", "local", "tournament", "yags", "filter"}
	sampledPredictors = []string{"bf-tage-10", "bf-neural", "bf-gehl", "isl-tage-15"}
	ledgerPredictors  = append(append([]string(nil), corePredictors...), tablePredictors...)
)

// predictorLayer names the ledger layer a predictor's metrics sit in.
func predictorLayer(name string) string {
	if contains(corePredictors, name) {
		return "core"
	}
	return "predictor"
}

var (
	allWorkloads   = workloadNames()
	tableWorkloads = []string{"tables-suite"}
	replayOnly     = []string{"replay-inflight"}
	suiteOnly      = []string{"suite-observed"}
)

// perLayer are the metrics a traced run (-trace 1) prints, built from
// the ledger's layers in order.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		{name: "workload.ns_per_branch", unit: "ns/branch", better: "lower", moves: "branches_per_ref_s", on: tableWorkloads},
		{name: "workload.share", unit: "fraction", better: "lower", moves: "branches_per_ref_s", on: tableWorkloads},
		{name: "trace.encode_ns_per_branch", unit: "ns/branch", better: "lower", moves: "setup_s", on: replayOnly},
		{name: "trace.decode_ns_per_branch", unit: "ns/branch", better: "lower", moves: "branches_per_ref_s", on: replayOnly},
		{name: "trace.file_bytes_per_branch", unit: "B/branch", better: "lower", moves: "branches_per_ref_s", on: replayOnly},
		{name: "sim.harness_ns_per_branch", unit: "ns/branch", better: "lower", moves: "branches_per_ref_s", on: tableWorkloads},
		{name: "sim.harness_share", unit: "fraction", better: "lower", moves: "branches_per_ref_s", on: tableWorkloads},
	}
	for _, p := range ledgerPredictors {
		ms = append(ms, metric{name: predictorLayer(p) + "." + p + ".ns_per_branch", unit: "ns/branch",
			better: "lower", moves: "branches_per_ref_s", on: workloadsRunning(p)})
	}
	for _, p := range sampledPredictors {
		prefix := predictorLayer(p) + "." + p + "."
		for _, call := range []string{"predict", "update"} {
			for _, q := range []string{"p50", "p99"} {
				ms = append(ms, metric{name: prefix + call + "_ns_" + q, unit: "ns", better: "lower",
					moves: "branches_per_ref_s", on: replayOnly})
			}
		}
		ms = append(ms, metric{name: prefix + "samples", unit: "count", better: "higher", moves: "branches_per_ref_s", on: replayOnly})
	}
	return append(ms,
		metric{name: "engine.busy_s", unit: "s", better: "lower", moves: "branches_per_ref_s", on: suiteOnly},
		metric{name: "engine.utilization", unit: "fraction", better: "higher", moves: "branches_per_ref_s", on: suiteOnly},
		metric{name: "engine.tail_s", unit: "s", better: "lower", moves: "branches_per_ref_s", on: suiteOnly},
		metric{name: "obs.journal_bytes_per_branch", unit: "B/branch", better: "lower", moves: "alloc_bytes_per_branch", on: suiteOnly},
		metric{name: "obs.journal_events", unit: "count", better: "lower", moves: "alloc_bytes_per_branch", on: suiteOnly},
		metric{name: "obs.trace_bytes_per_branch", unit: "B/branch", better: "lower", moves: "alloc_bytes_per_branch", on: suiteOnly},
		metric{name: "obs.trace_events", unit: "count", better: "lower", moves: "branches_per_ref_s", on: suiteOnly},
		metric{name: "obs.overhead_pct", unit: "%", better: "lower", moves: "branches_per_ref_s", on: suiteOnly},
		metric{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: "alloc_bytes_per_branch", on: allWorkloads},
		metric{name: "runtime.gc_cpu_s", unit: "s", better: "lower", moves: "alloc_bytes_per_branch", on: allWorkloads},
		metric{name: "runtime.max_rss_mb", unit: "MB", better: "lower", moves: "alloc_bytes_per_branch", on: allWorkloads},
		metric{name: "bench.trace_overhead_pct", unit: "%", better: "lower", moves: "none", on: allWorkloads},
	)
}

// workloadsRunning lists the workloads whose cells run predictor p.
func workloadsRunning(p string) []string {
	var out []string
	for _, w := range workloads {
		if contains(w.preds, p) {
			out = append(out, w.name)
		}
	}
	return out
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
