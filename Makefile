GO ?= go

.PHONY: all build vet test race check fuzz bench bench-test microbench smoke loc

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
# decoder, the BFT1 trace decoder against its byte-at-a-time reference
# model, the BFT1 encode-decode round trip, the records-xor-error
# contract of every trace reader (ReadBatch over random batch sizes
# against repeated Read), the key map against FoldWords over
# random geometries, the monolithic recency stack against its
# shift-register reference model and the segmented recency stack
# against its per-segment reference model, both over random geometries
# (snapshot round trips included), and the snapshot loaders of the
# TAGE and GEHL engines (each over both histories), the neural engine
# (over the folded dense, sampled, recency-stack and bias-free-register
# histories), oh-snap and the six table predictors, fed one corrupted
# section at a time. go test fuzzes one target per invocation. A
# failing input is written under the package's testdata/fuzz/.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=10s ./internal/state
	$(GO) test -run='^$$' -fuzz='^FuzzFileReader$$' -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzTraceRoundTrip$$' -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzBatchReaders$$' -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzKeyMap$$' -fuzztime=10s ./internal/history
	$(GO) test -run='^$$' -fuzz='^FuzzStack$$' -fuzztime=10s ./internal/rs
	$(GO) test -run='^$$' -fuzz='^FuzzSegmented$$' -fuzztime=10s ./internal/rs
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
# the commands once, then runs six checks: trace (identical-seed
# journals diff clean, no per-branch predict/update slices in the
# timeline), flags (a negative count, a no-op -probe-state-every 0 or
# -warmup, an unknown trace or figure, too few variance seeds or an
# undefined flag exits 2 without a panic), snapshot (split runs equal
# straight runs, and a snapshot cut by one byte exits 1 without a
# panic), window (`journal summary` counts the window events of a
# journaled -window run, whose timeline carries the mpki counter track),
# xray (tablestats journal events, and the bank hits of an explained
# TAGE run)
# and codec (a tracegen file replayed with bfsim -f and read by
# traceinfo equals the synthetic trace, and the file cut by one byte
# exits 1 without a panic).
# Leaves its artifacts in smoke_ci/ for CI upload.
smoke:
	GO=$(GO) bash scripts/smoke.sh

# Go microbenchmarks: root package, engine/telemetry overhead, and the
# hot-path kernels (key-map lookup and sync, fold-bank push, segmented
# recency-stack commit, the two dot-product kernels, the three flagship
# cores' probe paths and oh-snap's predict/update). The BF-GHR's whole
# per-branch step is timed only in context, by bench/'s bf-cores
# workload: run alone in a loop it did not move when the cores did.
BENCHTIME ?= 1s

microbench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) . ./internal/sim \
		./internal/history ./internal/rs ./internal/dotp \
		./internal/core/bftage ./internal/core/bfneural ./internal/core/bfgehl \
		./internal/predictor/ohsnap

# The tracked size of the code: lines of non-test Go outside bench/
# (the figure ROADMAP.md's north star follows) and lines of test Go
# outside bench/. Hidden directories (.git, .bench_build) are skipped.
LOCFIND = find . \( -path ./bench -o -path './.*' \) -prune -o -type f -name '*.go'

loc:
	@echo "non-test Go (excluding bench/): $$($(LOCFIND) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "test Go (excluding bench/): $$($(LOCFIND) -name '*_test.go' -print | xargs cat | wc -l)"
