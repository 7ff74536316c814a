# Development entry points for the dbdc library.

GO ?= go

.PHONY: all build test test-short test-race check fuzz-smoke bench bench-json bench-smoke benchdiff loadgen-smoke agg-smoke vet experiments examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# The CI gate: static checks, build, race-enabled tests.
check: vet build test-race

# Short native-fuzzing smoke over every fuzz target (decoders must never
# panic on arbitrary bytes). CI runs this on push; use a larger FUZZTIME
# locally before touching the wire formats.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/transport/ -run '^$$' -fuzz 'FuzzReadFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzBudgetSections -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzAggSections -fuzztime $(FUZZTIME)
	$(GO) test ./internal/model/ -run '^$$' -fuzz FuzzLocalModelUnmarshal -fuzztime $(FUZZTIME)
	$(GO) test ./internal/model/ -run '^$$' -fuzz FuzzGlobalModelUnmarshal -fuzztime $(FUZZTIME)
	$(GO) test ./internal/model/ -run '^$$' -fuzz FuzzLocalDeltaUnmarshal -fuzztime $(FUZZTIME)
	$(GO) test ./internal/geom/ -run '^$$' -fuzz 'FuzzStoreDistanceSq$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/geom/ -run '^$$' -fuzz FuzzDistanceSqBatch -fuzztime $(FUZZTIME)
	$(GO) test ./internal/shard/ -run '^$$' -fuzz FuzzShardAssign -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dbscan/ -run '^$$' -fuzz FuzzPrunedExpansion -fuzztime $(FUZZTIME)

# Full benchmark sweep: one benchmark per paper figure/table plus the
# ablations. Expect several minutes (Figure 8 runs a 203,000-point study).
bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path benchmark sweep recorded as a committed artifact: runs the
# BenchmarkLocalClustering suite (naive-vs-fast kernels, flat-store bulk
# loads, worker scaling) plus BenchmarkStoreKernels (strided vs slice
# distance kernels, allocation-free range loops) and
# BenchmarkLoadgenClassify (loopback classification serving throughput)
# and converts the output into BENCH_<shortrev>.json via cmd/benchjson. The raw
# text passes through to stdout unchanged, so the same pipeline feeds
# benchstat:
#
#   make bench-json BENCHFLAGS='-count=10' | tee new.txt
#   benchstat old.txt new.txt    # any `go test -bench` text file works
#
# See docs/performance.md for how to read the JSON.
BENCHFLAGS ?=
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkLocalClustering|BenchmarkStoreKernels|BenchmarkLoadgenClassify' -benchmem $(BENCHFLAGS) . \
		| $(GO) run ./cmd/benchjson -rev $$(git rev-parse --short HEAD)

# One-iteration smoke over the hot-path suite: catches benchmarks that no
# longer compile or crash, without paying measurement time. CI runs this.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkLocalClustering|BenchmarkStoreKernels|BenchmarkLoadgenClassify' -benchtime 1x -benchmem .

# Run the hot-path suite and diff it against the committed baseline artifact
# with cmd/benchdiff. BASELINE defaults to the newest committed BENCH_*.json;
# DIFFFLAGS passes through to benchdiff (e.g. DIFFFLAGS='-fail -threshold
# 0.25' to gate). Crank BENCHFLAGS='-count=5 -benchtime 2s' for less noise —
# the default single run trips the 10% threshold on timing jitter alone.
BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
DIFFFLAGS ?=
benchdiff:
	@test -n "$(BASELINE)" || { echo "benchdiff: no committed BENCH_*.json baseline"; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkLocalClustering|BenchmarkStoreKernels|BenchmarkLoadgenClassify' -benchmem $(BENCHFLAGS) . \
		| $(GO) run ./cmd/benchjson -rev $$(git rev-parse --short HEAD) -out /tmp/dbdc-bench-new.json >/dev/null
	$(GO) run ./cmd/benchdiff $(DIFFFLAGS) $(BASELINE) /tmp/dbdc-bench-new.json

# Serving smoke: the in-process twin of a dbdc-loadgen run — boots a
# classification front end, drives closed-loop load against it for both
# request shapes and checks the benchio report is coherent (see
# docs/serving.md). CI runs this plus the serve package under -race.
loadgen-smoke:
	$(GO) test -race -run 'TestLoadgenSmoke' -count=1 -v ./internal/serve/

# Aggregation-tree smoke: boots a loopback two-level tree out of the real
# binaries (4 dbdc-site -> 2 dbdc-agg -> dbdc-server), checks every
# process exits clean, every site labels all its points against the root
# model, and the provenance sections reach the root's report. See
# docs/hierarchy.md. CI runs this plus internal/aggtree under -race.
agg-smoke:
	sh scripts/agg_smoke.sh

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/experiments -run all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/distributed
	$(GO) run ./examples/astronomy
	$(GO) run ./examples/retail
	$(GO) run ./examples/monitoring

clean:
	$(GO) clean ./...
