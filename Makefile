GO ?= go

.PHONY: all build vet test race check bench bench-quick bench-test microbench smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-enabled run of the concurrency-sensitive packages (suite engine
# worker pool, the experiment runner built on it, the telemetry stack
# that observes both, and the bfstat console's live-stack test).
race:
	$(GO) test -race ./internal/sim/... ./internal/experiments/... ./internal/obs/... ./internal/telemetry/... ./cmd/bfstat/...

check: build vet race

# End-to-end throughput benchmark: a fixed predictor x trace matrix run
# by cmd/bench, written to the next free BENCH_<n>.json. Commit the JSON
# alongside optimisation PRs so before/after numbers live in the tree.
# `make bench-quick` is the CI smoke variant: 1/5 the branches, one run,
# compared against the committed BENCH_1.json baseline. The comparison
# divides out machine speed using the untouched control predictors
# (bimodal/gshare), so the tolerance only has to absorb per-cell noise
# and can sit tight enough to catch a real hot-path regression.
bench:
	$(GO) run ./cmd/bench

bench-quick:
	$(GO) run ./cmd/bench -quick -out bench_ci.json -baseline BENCH_1.json -tolerance 1.4

# The layered simulator benchmark in bench/ is its own Go module, so
# the root build, vet and test targets never reach it. This vets it and
# runs its tests (determinism at 1/100 scale, golden counters, wrapper
# transparency) under the race detector.
bench-test:
	cd bench && $(GO) vet . && $(GO) test -race .

# End-to-end smoke of the command-line tools (scripts/smoke.sh): builds
# bfsim, bfstat and journal once, then checks identical-seed journals
# diff clean, split snapshot runs equal straight runs, drift alarms and
# counter tracks and the flight dump, tablestats journal events (TAGE
# banks carrying provider hits), and the live /healthz,
# /metrics/history, summary-quantile and table-occupancy surfaces.
# Leaves its artifacts in smoke_ci/ for CI upload.
OBS_ADDR ?= 127.0.0.1:9377

smoke:
	GO=$(GO) OBS_ADDR=$(OBS_ADDR) bash scripts/smoke.sh

# Go microbenchmarks: root package, engine/telemetry overhead, and the
# hot-path kernels (fold pipelines / fold sets, recency-stack CAM,
# fused dot-product, and the three flagship cores' probe paths).
BENCHTIME ?= 1s

microbench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) . ./internal/sim \
		./internal/history ./internal/rs ./internal/dotp \
		./internal/core/bftage ./internal/core/bfneural ./internal/core/bfgehl
