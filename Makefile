# Verification tiers. `make check` is the full recipe CI should run.
#
#   build       - compile everything
#   test        - tier 1: the plain test suite
#   race        - tier 2: vet + the suite (incl. the differential harness
#                 in internal/integration) under the race detector
#   bench       - compile-and-smoke every benchmark (one iteration each)
#   bench-smoke - quick perf tier: the simulator and analysis benchmarks
#                 (a few real iterations, -benchmem) + vet of
#                 internal/sim, so a regression in the pooled sim hot
#                 path or the trie analysis fast path is caught without
#                 running the full bench suite
#   bench-json  - run the headline benchmarks and refresh BENCH_sim.json
#                 and BENCH_analysis.json (see tools/bench_json.sh and
#                 tools/bench_analysis_json.sh; numbers are machine-
#                 relative, regenerate before/after on the same box)
#   verify-obs  - observability tier: vet + race tests of the
#                 instrumentation packages (metrics, trace, telemetry,
#                 par, sim, exp), the steady-state alloc regression
#                 test, and tools/check_obs_overhead.sh's <2% disabled-
#                 tracing throughput guard against BENCH_sim.json
#   verify-latency - latency metric suite tier: the 200-workload
#                 analysis-vs-simulation differential harness and the
#                 observer property harness under -race, the trie
#                 fast-path unit differentials, the latency observer
#                 and method tests, and the chains fuzz seed corpus
#   verify-sim-cycle - steady-state jump-ahead tier: the cycle-detection
#                 and batch unit tests plus the public-API jump on/off
#                 determinism test under -race, and the 200-workload
#                 jump-vs-full differential harness
#   verify-explain - decision-telemetry tier: vet + race tests of the
#                 explain recorder/witness, the derived telemetry
#                 gauges, the shared CLI -explain lifecycle, the bench
#                 gate tool, and the pinned WATERS -explain golden
#   verify-scale - fleet-scale tier: vet + race tests of the bitset,
#                 chains, and fleet generator packages, the >64-task
#                 differential harness (100 fleet-tier workloads fast
#                 path == reference, exact multi-word masks on the
#                 1000+-task default fleet, subtree pruning on == off
#                 field by field plus the subtree-aggregate property
#                 test — every TestScale* in internal/integration rides
#                 the -run pattern), the public GenerateFleet tests,
#                 and the pinned fleet generator golden
#   bench-gate  - regenerate both bench JSONs into .bench/ and diff
#                 them against the checked-in baselines with
#                 tools/bench_compare (BENCH_GATE_FLAGS=-report-only
#                 for advisory mode); fails on ratio/alloc regression
#   fuzz-smoke  - run each parser fuzz target for 15s: the graph
#                 loader (FuzzReadJSON), the one-pass decoder against
#                 its encoding/json oracle (FuzzReadJSONMatchesReference)
#                 and the time parser against exact math/big evaluation
#                 (FuzzParse)
#   check       - build + test + race + bench
#
# tools/escape_check.sh (not wired into check; advisory) prints sim hot-path
# values that escape to the heap per `go build -gcflags=-m`.

GO ?= go

.PHONY: build test race bench bench-smoke bench-json verify-obs verify-latency verify-sim-cycle verify-explain verify-scale bench-gate fuzz-smoke check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) vet ./...
	$(GO) test -race ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

bench-smoke:
	$(GO) vet ./internal/sim/...
	$(GO) test -run='^$$' -bench='BenchmarkSimThroughput|BenchmarkPooledEngine|BenchmarkReferenceEngine|BenchmarkPairBounds|BenchmarkSimJumpAhead|BenchmarkBatchSweep' -benchtime=3x -benchmem ./...

bench-json:
	sh tools/bench_json.sh
	sh tools/bench_analysis_json.sh

verify-obs:
	$(GO) vet ./...
	$(GO) test -race ./internal/metrics/... ./internal/trace/... ./internal/telemetry/... ./internal/par/... ./internal/sim/...
	$(GO) test -race -run 'TestSweepObservability|TestUntracedSweepIdentical' ./internal/exp/...
	$(GO) test -run 'TestSteadyStateAllocsPerJob' ./internal/sim/...
	sh tools/check_obs_overhead.sh

verify-sim-cycle:
	$(GO) vet ./internal/sim/...
	$(GO) test -race -run 'TestJumpAhead|TestBatch' ./internal/sim/...
	$(GO) test -race -run 'TestSimulateJumpAheadDeterministic' .
	$(GO) test -run 'TestJumpAheadMatchesFullExecution' ./internal/integration/...

verify-explain:
	$(GO) vet ./internal/explain/... ./tools/bench_compare/...
	$(GO) test -race ./internal/explain/... ./internal/telemetry/... ./internal/cli/... ./tools/bench_compare/...
	$(GO) test -run 'TestGoldenExplainWaters' ./cmd/disparity-analyze/...
	$(GO) test -run 'TestReportExplainSection' ./internal/report/...

verify-scale:
	$(GO) vet ./internal/bitset/... ./internal/chains/... ./internal/randgraph/... ./internal/waters/...
	$(GO) test -race ./internal/bitset/... ./internal/chains/... ./internal/randgraph/... ./internal/waters/...
	$(GO) test -race -run 'TestScale' ./internal/integration/...
	$(GO) test -run 'TestGenerateFleet' .
	$(GO) test -run 'TestGoldenGenTopologies/fleet' ./cmd/disparity-gen/...

bench-gate:
	mkdir -p .bench
	BENCH_OUT_DIR=.bench sh tools/bench_json.sh
	BENCH_OUT_DIR=.bench sh tools/bench_analysis_json.sh
	$(GO) run ./tools/bench_compare $(BENCH_GATE_FLAGS) BENCH_sim.json .bench/BENCH_sim.json BENCH_analysis.json .bench/BENCH_analysis.json

verify-latency:
	$(GO) test -race -run 'TestLatency' ./internal/integration/...
	$(GO) test -run 'TestChainLatency' ./internal/backward/...
	$(GO) test -run 'TestLatency' ./internal/core/... ./internal/sim/... ./internal/methods/...
	$(GO) test -run 'TestLatencySweep' ./internal/exp/...
	$(GO) test -run 'FuzzIndexMatchesEnumerate' ./internal/chains/...

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 15s ./internal/model
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSONMatchesReference$$' -fuzztime 15s ./internal/model
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 15s ./internal/timeu

check: build test race bench
