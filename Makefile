# Convenience targets for the mc3 repository. Everything is plain `go` —
# these exist only as documentation of the common invocations.

GO ?= go

.PHONY: all build vet test test-race race check bench bench-full cluster-smoke stream-smoke experiments experiments-quick serve fuzz clean

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

# End-to-end cluster gate: two shard processes + a router process, replayed
# against with the per-batch differential check (docs/CLUSTER.md). Artifacts
# land in ./cluster-smoke.
cluster-smoke:
	sh scripts/cluster-smoke.sh

# Streaming smoke gate: a generated query log solved materialized, streamed
# finish-only, streamed with mid-stream sealing, and streamed with
# mid-stream sealing on parallel seal workers must cost identically; plus
# the peak-heap stream-mem differential (docs/STREAMING.md). Artifacts land
# in ./stream-smoke.
stream-smoke:
	sh scripts/stream-smoke.sh

# Regenerate the paper's experimental study at full scale (≈ half a minute).
experiments:
	$(GO) run ./cmd/mc3bench

experiments-quick:
	$(GO) run ./cmd/mc3bench -quick

# Run the solve daemon locally (POST instances to http://localhost:8080/solve;
# see docs/SERVING.md for the API and the component-solution cache behind it).
serve:
	$(GO) run ./cmd/mc3serve -addr localhost:8080

# Short fuzzing passes over the parsers, the set algebra, the C_Q
# enumeration kernel and the preprocessing Step 3 kernel (each kernel
# against its reference), the instance scanner against encoding/json, and
# the flight recorder's records against the recorder that kept Events.
# Patterns are anchored: go test refuses a -fuzz pattern that matches more
# than one target. FuzzReadDifferential's seeds include bodies several scan
# windows long, and FuzzFlightRecorderDifferential's are 1.2 KB operation
# streams; minimizing each new input for the default 60 s would take the
# whole run, so their minimization is capped. FuzzReadDeltaStream's five
# arguments stalled the same way (no execs for the last 55 s of a 75 s
# run), so its minimization is capped too.
fuzz:
	$(GO) test -fuzz '^FuzzRead$$' -fuzztime 30s ./internal/textio/
	$(GO) test -fuzz '^FuzzReadDifferential$$' -fuzztime 30s -fuzzminimizetime 10x ./internal/textio/
	$(GO) test -fuzz '^FuzzReadSessionBundle$$' -fuzztime 30s ./internal/incr/
	$(GO) test -fuzz '^FuzzReadDeltaStream$$' -fuzztime 30s -fuzzminimizetime 10x ./internal/incr/
	$(GO) test -fuzz '^FuzzParseQueryLog$$' -fuzztime 30s ./internal/workload/
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/nlq/
	$(GO) test -fuzz '^FuzzPropSetAlgebra$$' -fuzztime 30s ./internal/core/
	$(GO) test -fuzz '^FuzzAppendKeyCanonical$$' -fuzztime 30s ./internal/core/
	$(GO) test -fuzz '^FuzzNewInstance$$' -fuzztime 30s .
	$(GO) test -fuzz '^FuzzPrep$$' -fuzztime 30s ./internal/prep/
	$(GO) test -fuzz '^FuzzFlightRecorderDifferential$$' -fuzztime 30s -fuzzminimizetime 10x ./internal/obs/

clean:
	$(GO) clean ./...
