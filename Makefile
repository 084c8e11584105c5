GO ?= go

.PHONY: all build vet test race check fuzz bench bench-test microbench smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-enabled run of the concurrency-sensitive packages (suite engine
# worker pool, the experiment runner built on it, and the telemetry
# stack that observes both).
race:
	$(GO) test -race ./internal/sim/... ./internal/experiments/... ./internal/obs/... ./internal/telemetry/...

check: build vet race

# Fuzz each fuzz target for a fixed 10 s: the snapshot container
# decoder, the BFT1 trace decoder, the key map against FoldWords over
# random geometries, and the snapshot loaders of the TAGE and GEHL
# engines (each over both histories), the neural engine (over the
# folded dense, sampled, recency-stack and bias-free-register
# histories), oh-snap and the six table predictors, fed one corrupted
# section at a time. go
# test fuzzes one target per invocation. A failing input is written
# under the package's testdata/fuzz/.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=10s ./internal/state
	$(GO) test -run='^$$' -fuzz='^FuzzFileReader$$' -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzKeyMap$$' -fuzztime=10s ./internal/history
	$(GO) test -run='^$$' -fuzz='^FuzzLoadState$$' -fuzztime=10s .

# End-to-end throughput benchmark (bench/run.sh): each of the four
# workloads for one pass at golden seed 1, which checks every cell's
# counters against the golden values. A failed cell or a counter
# mismatch exits 1 and fails the target. Real
# numbers come from `bash bench/run.sh --seconds 20` on quiet hardware;
# `--trace 1` prints the per-layer ledger.
bench:
	@for w in bf-cores tables-suite replay-inflight suite-observed; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done

# The layered simulator benchmark in bench/ is its own Go module, so
# the root build, vet and test targets never reach it. This vets it and
# runs its tests (determinism at 1/100 scale, golden counters, wrapper
# transparency) under the race detector.
bench-test:
	cd bench && $(GO) vet . && $(GO) test -race .

# End-to-end smoke of the command-line tools (scripts/smoke.sh): builds
# the commands once, then runs five checks: trace (identical-seed
# journals diff clean), flags (a negative count exits 2 without a
# panic), snapshot (split runs equal straight runs),
# drift (alarms, counter tracks and a parseable flight dump) and xray
# (tablestats journal events, TAGE banks carrying provider hits).
# Leaves its artifacts in smoke_ci/ for CI upload.
smoke:
	GO=$(GO) bash scripts/smoke.sh

# Go microbenchmarks: root package, engine/telemetry overhead, and the
# hot-path kernels (key-map lookup and segment delta, fold-bank push,
# fused dot-product, and the three flagship cores' probe paths).
# internal/rs has no benchmarks yet; its tests still run here.
BENCHTIME ?= 1s

microbench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) . ./internal/sim \
		./internal/history ./internal/rs ./internal/dotp \
		./internal/core/bftage ./internal/core/bfneural ./internal/core/bfgehl
