# Convenience targets for the mc3 repository. Everything is plain `go` —
# these exist only as documentation of the common invocations.

GO ?= go

.PHONY: all build vet test test-race race check bench bench-full bench-sched bench-baseline bench-compare cluster-smoke stream-smoke experiments experiments-quick serve fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

race: test-race

# The pre-merge gate: vet plus the full test suite under the race detector.
check:
	$(GO) vet ./...
	$(GO) test -race ./...

# One benchmark per paper table/figure (reduced scale) + micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem -run xxx .

bench-full:
	$(GO) test -bench=. -benchmem -run xxx ./...

# Serial-vs-parallel scheduler comparison: the BenchmarkSched* pairs plus the
# mc3bench parallelism sweep (which also verifies cost-identity per level).
bench-sched:
	$(GO) test -bench Sched -benchmem -count=$(BENCH_COUNT) -run xxx .
	$(GO) run ./cmd/mc3bench -exp sched

# End-to-end cluster gate: two shard processes + a router process, replayed
# against with the per-batch differential check (docs/CLUSTER.md). Artifacts
# land in ./cluster-smoke.
cluster-smoke:
	sh scripts/cluster-smoke.sh

# Streaming smoke gate: a generated query log solved materialized, streamed
# finish-only, and streamed with mid-stream sealing must cost identically;
# plus the sampling path and the peak-heap stream-mem differential
# (docs/STREAMING.md). Artifacts land in ./stream-smoke.
stream-smoke:
	sh scripts/stream-smoke.sh

# Before/after comparison flow (see docs/PERFORMANCE.md):
#   git stash / git checkout <old>; make bench-baseline   # writes bench-old.txt
#   git checkout <new>;            make bench-compare     # writes bench-new.txt, diffs
# benchstat (golang.org/x/perf) sharpens the diff when installed; without it
# the two files are kept for manual comparison.
BENCH_COUNT ?= 5
BENCH_PKGS  ?= .

bench-baseline:
	$(GO) test -bench=. -benchmem -count=$(BENCH_COUNT) -run xxx $(BENCH_PKGS) | tee bench-old.txt

bench-compare:
	$(GO) test -bench=. -benchmem -count=$(BENCH_COUNT) -run xxx $(BENCH_PKGS) | tee bench-new.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench-old.txt bench-new.txt; \
	else \
		echo "benchstat not installed; compare bench-old.txt and bench-new.txt by hand"; \
		echo "  (go install golang.org/x/perf/cmd/benchstat@latest)"; \
	fi

# Regenerate the paper's experimental study at full scale (≈ half a minute).
experiments:
	$(GO) run ./cmd/mc3bench

experiments-quick:
	$(GO) run ./cmd/mc3bench -quick

# Run the solve daemon locally (POST instances to http://localhost:8080/solve;
# see docs/SERVING.md for the API and the component-solution cache behind it).
serve:
	$(GO) run ./cmd/mc3serve -addr localhost:8080

# Short fuzzing passes over the parsers, the set algebra and the C_Q
# enumeration kernel (against its reference enumeration).
fuzz:
	$(GO) test -fuzz FuzzRead -fuzztime 30s ./internal/textio/
	$(GO) test -fuzz FuzzReadSessionBundle -fuzztime 30s ./internal/incr/
	$(GO) test -fuzz FuzzPropSetAlgebra -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzNewInstance -fuzztime 30s .

clean:
	$(GO) clean ./...
