// Benchmarks regenerating the paper's evaluation, one per figure panel,
// plus micro-benchmarks for the analysis and simulation engines.
//
// The Fig6* benchmarks run a scaled-down instance of the corresponding
// experiment per iteration (fewer graphs and a shorter horizon than the
// paper's 10-minute runs — use cmd/disparity-exp -paper for full scale);
// they exist so `go test -bench` exercises and times every experiment
// code path.
package disparity_test

import (
	"bytes"
	"math/rand"
	"testing"

	disparity "repro"
	"repro/internal/chains"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/timeu"
	"repro/internal/trace/span"
	"repro/internal/waters"
)

func benchCfg() exp.Config {
	cfg := exp.Defaults()
	cfg.GraphsPerPoint = 2
	cfg.OffsetsPerGraph = 2
	cfg.Horizon = timeu.Second
	cfg.Warmup = 200 * timeu.Millisecond
	return cfg
}

// BenchmarkFig6a regenerates the Fig. 6(a) series: Sim / P-diff / S-diff
// absolute disparity versus task count.
func BenchmarkFig6a(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{5, 15, 25}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6a(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6b regenerates the Fig. 6(b) series: incremental ratios of
// P-diff and S-diff against simulation.
func BenchmarkFig6b(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{5, 15, 25}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6b(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6c regenerates the Fig. 6(c) series: Sim / S-diff and their
// buffered counterparts on two-chain graphs.
func BenchmarkFig6c(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{5, 15}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6c(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6d regenerates the Fig. 6(d) series: incremental ratios of
// the buffered experiment.
func BenchmarkFig6d(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{5, 15}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6d(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6aUncached is BenchmarkFig6a with the memoization layer
// disabled; compare the two to see the cache's effect on the full
// (simulation-dominated) sweep.
func BenchmarkFig6aUncached(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{5, 15, 25}
	cfg.DisableCache = true
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6a(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoundsSweepCached times the analysis-only sweep (P-diff,
// S-diff, greedy S-diff-B; no simulation) at the Defaults() experiment
// scale with the per-graph AnalysisCache enabled. Together with
// BenchmarkBoundsSweepUncached this measures the memoization layer on
// the workload it targets; the emitted tables are bit-identical.
func BenchmarkBoundsSweepCached(b *testing.B) {
	cfg := exp.Defaults()
	for i := 0; i < b.N; i++ {
		if _, err := exp.BoundsSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoundsSweepUncached is the cache-disabled baseline of
// BenchmarkBoundsSweepCached.
func BenchmarkBoundsSweepUncached(b *testing.B) {
	cfg := exp.Defaults()
	cfg.DisableCache = true
	for i := 0; i < b.N; i++ {
		if _, err := exp.BoundsSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGraph builds one schedulable 25-task GNM workload for the
// analysis micro-benchmarks.
func benchGraph(b *testing.B) (*disparity.Graph, disparity.TaskID) {
	b.Helper()
	for seed := int64(1); seed < 100; seed++ {
		g, err := disparity.GenerateGNM(25, 50, disparity.GenConfig{Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := disparity.Analyze(g); err != nil {
			continue
		}
		return g, g.Sinks()[0]
	}
	b.Fatal("no schedulable benchmark graph found")
	return nil, 0
}

// BenchmarkAnalyzePDiff times the Theorem-1 task-level analysis on a
// 25-task workload (the paper's efficiency claim: analysis is cheap
// compared to simulation).
func BenchmarkAnalyzePDiff(b *testing.B) {
	g, sink := benchGraph(b)
	a, err := disparity.Analyze(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Disparity(sink, disparity.PDiff, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeSDiff times the Theorem-2 task-level analysis.
func BenchmarkAnalyzeSDiff(b *testing.B) {
	g, sink := benchGraph(b)
	a, err := disparity.Analyze(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Disparity(sink, disparity.SDiff, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairBounds times the trie-based analysis fast path end to
// end on a fresh analysis per iteration: build the chain index, the
// per-node bound prefix sums, and run the dominance-pruned pair loop.
// This is the per-graph analysis cost a sweep actually pays (nothing is
// amortized across iterations). Compare with
// BenchmarkPairBoundsReference, the legacy per-pair pipeline on the
// same workload; BENCH_analysis.json records both.
func BenchmarkPairBounds(b *testing.B) {
	g, sink := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := disparity.Analyze(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.DisparityBound(sink, disparity.SDiff, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairBoundsReference is the reference pipeline
// (enumerate, strip each pair's suffix, bound via PairDisparity) on the
// BenchmarkPairBounds workload — the fast path's speedup baseline.
func BenchmarkPairBoundsReference(b *testing.B) {
	g, sink := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := disparity.Analyze(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.DisparityReference(sink, disparity.SDiff, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainIndex times building the shared prefix trie over 𝒫
// (chains.NewIndex); compare with BenchmarkEnumerateChains, which
// materializes every chain separately.
func BenchmarkChainIndex(b *testing.B) {
	g, sink := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx := chains.NewIndex(g, sink, 0); idx.NumChains() == 0 {
			b.Fatal("empty index")
		}
	}
}

// fleetBenchGraph builds the default ~2000-task fleet workload once
// per benchmark (schedulable by construction, so no retry loop skews
// the measurement) and returns it with its single sink.
func fleetBenchGraph(b *testing.B) (*disparity.Graph, disparity.TaskID) {
	b.Helper()
	g, _, err := disparity.GenerateFleet(disparity.FleetConfig{}, disparity.GenConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if g.NumTasks() < 2000 {
		b.Fatalf("fleet workload has %d tasks, want ≥ 2000", g.NumTasks())
	}
	return g, g.Sinks()[0]
}

// BenchmarkChainIndexFleet times the incremental trie build at fleet
// scale: ~2000 tasks with multi-word path masks.
func BenchmarkChainIndexFleet(b *testing.B) {
	g, sink := fleetBenchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := chains.NewIndex(g, sink, 0)
		if idx.NumChains() == 0 {
			b.Fatal("empty index")
		}
		if _, stride := idx.PathMasks(); stride < 2 {
			b.Fatalf("fleet masks stride = %d, want multi-word", stride)
		}
	}
}

// BenchmarkPairBoundsFleet times the full bound-only analysis on the
// fleet workload — fresh analysis, streaming index+bounds build, and
// the flat block-parallel pair loop over ~40k pairs with multi-word
// masks — with the subtree branch-and-bound OFF: the all-pairs
// baseline the .../Pruned ratio pair in tools/bench_compare divides
// against.
func BenchmarkPairBoundsFleet(b *testing.B) {
	defer func(old bool) { core.SubtreePrune = old }(core.SubtreePrune)
	core.SubtreePrune = false
	g, sink := fleetBenchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := disparity.Analyze(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.DisparityBound(sink, disparity.SDiff, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairBoundsFleetPruned is the same workload on the default
// configuration (subtree pruning on). Besides the wall-clock ratio,
// it asserts the prune actually engages: the pairs enumerated per
// iteration (evaluated + per-pair pruned) must be at most half the
// pair count, i.e. at least 2x fewer than the all-pairs baseline.
func BenchmarkPairBoundsFleetPruned(b *testing.B) {
	g, sink := fleetBenchGraph(b)
	bounded := metrics.C("core.pairs.bounded")
	pruned := metrics.C("core.pairs.pruned")
	b0, p0 := bounded.Load(), pruned.Load()
	var numPairs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := disparity.Analyze(g)
		if err != nil {
			b.Fatal(err)
		}
		td, err := a.DisparityBound(sink, disparity.SDiff, 0)
		if err != nil {
			b.Fatal(err)
		}
		numPairs = td.NumPairs
	}
	b.StopTimer()
	if enumerated := (bounded.Load() - b0) + (pruned.Load() - p0); enumerated > int64(b.N)*int64(numPairs)/2 {
		b.Fatalf("subtree prune ineffective: %d pairs enumerated over %d iterations of %d pairs (want ≤ half)",
			enumerated, b.N, numPairs)
	}
}

// BenchmarkSimulateSecond times simulating one second of the 25-task
// workload (reported allocations dominate the merge of source stamps).
func BenchmarkSimulateSecond(b *testing.B) {
	g, _ := benchGraph(b)
	disparity.RandomOffsets(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disparity.Simulate(g, disparity.SimConfig{
			Horizon: timeu.Second,
			Exec:    disparity.ExecExtremes,
			Seed:    int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimThroughput measures raw simulator throughput — simulated
// jobs per wall-clock second — on a fixed schedulable 25-task WATERS
// workload over a long horizon. It is the pure-engine counterpart of the
// Fig6* benchmarks: no graph generation, no analysis, just the
// discrete-event loop. Run with -benchmem; steady-state allocations per
// job should be ~0 (see internal/sim's alloc regression test).
func BenchmarkSimThroughput(b *testing.B) {
	g, _ := benchGraph(b)
	disparity.RandomOffsets(g, 1)
	var jobs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := disparity.Simulate(g, disparity.SimConfig{
			Horizon: 10 * timeu.Second,
			Exec:    disparity.ExecExtremes,
			Seed:    42,
		})
		if err != nil {
			b.Fatal(err)
		}
		jobs += res.Jobs
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(jobs)/secs, "jobs/s")
	}
}

// BenchmarkSimThroughputTraced is BenchmarkSimThroughput with a live
// Chrome span track attached to the engine. The delta against the
// untraced benchmark is the cost of *enabled* tracing (one countdown
// decrement per job plus one span per 65536-job chunk); the untraced
// benchmark itself guards the disabled path, which must stay within
// the tolerance recorded in BENCH_sim.json (see make verify-obs).
func BenchmarkSimThroughputTraced(b *testing.B) {
	g, _ := benchGraph(b)
	disparity.RandomOffsets(g, 1)
	tracer := span.New()
	var jobs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := disparity.Simulate(g, disparity.SimConfig{
			Horizon: 10 * timeu.Second,
			Exec:    disparity.ExecExtremes,
			Seed:    42,
			Trace:   tracer.Track("bench"),
		})
		if err != nil {
			b.Fatal(err)
		}
		jobs += res.Jobs
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(jobs)/secs, "jobs/s")
	}
	if tracer.SpanCount() == 0 {
		b.Fatal("traced run recorded no spans")
	}
}

// BenchmarkSimJumpAhead measures the steady-state jump-ahead fast path
// on a deterministic periodic workload: a 25-task WATERS graph with
// WCET execution over a 60-second horizon, of which everything past the
// transient prefix is one detected hyperperiod cycle replayed by the
// fast-forward. BenchmarkSimJumpAheadDisabled executes the same run in
// full; their ratio is the jump-ahead speedup recorded in
// BENCH_sim.json. The reported jobs/s counts simulated (including
// skipped) jobs.
func BenchmarkSimJumpAhead(b *testing.B) { benchJumpAhead(b, false) }

// BenchmarkSimJumpAheadDisabled is the full-execution baseline of
// BenchmarkSimJumpAhead.
func BenchmarkSimJumpAheadDisabled(b *testing.B) { benchJumpAhead(b, true) }

func benchJumpAhead(b *testing.B, disable bool) {
	g, _ := benchGraph(b)
	disparity.RandomOffsets(g, 1)
	var jobs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := disparity.Simulate(g, disparity.SimConfig{
			Horizon:          60 * timeu.Second,
			Exec:             disparity.ExecWCET,
			Seed:             42,
			DisableJumpAhead: disable,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !disable && !res.Jump.Engaged {
			b.Fatalf("jump-ahead did not engage: %+v", res.Jump)
		}
		jobs += res.Jobs
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(jobs)/secs, "jobs/s")
	}
}

// BenchmarkBatchSweep measures the inner loop of the experiment
// pipeline: a 20-run random-offset sweep through one shared engine
// (sim.Batch), WCET execution so jump-ahead engages per run. The
// per-run cost is what a thousand-variant sweep pays after the first
// run has warmed the pools.
func BenchmarkBatchSweep(b *testing.B) {
	g, _ := benchGraph(b)
	batch, err := sim.NewBatch(g, sim.Config{Horizon: 10 * timeu.Second, Exec: sim.WCETExec{}})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var offsets []timeu.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for run := 0; run < 20; run++ {
			offsets = waters.DrawOffsets(g, rng, offsets[:0])
			if _, err := batch.Run(sim.BatchRun{
				Seed:      rng.Int63(),
				Offsets:   offsets,
				Observers: []sim.Observer{sim.NewDisparityObserver(timeu.Second)},
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEnumerateChains times path enumeration on the workload.
func BenchmarkEnumerateChains(b *testing.B) {
	g, sink := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disparity.EnumerateChains(g, sink, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWCRT times the non-preemptive response-time analysis.
func BenchmarkWCRT(b *testing.B) {
	g, _ := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disparity.WCRT(g)
	}
}

// BenchmarkWCRTFleet times the same analysis on the ~2000-task fleet
// workload. Its ratio to BenchmarkWCRT is gated in tools/bench_compare:
// with per-ECU priority tables the cost grows with the tasks per ECU,
// and a whole-graph scan per task would show up as a jump in the ratio.
func BenchmarkWCRTFleet(b *testing.B) {
	g, _ := fleetBenchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disparity.WCRT(g)
	}
}

// BenchmarkValidateFleet times Graph.Validate (structural checks, the
// per-ECU priority check and TopoOrder) on the fleet workload.
func BenchmarkValidateFleet(b *testing.B) {
	g, _ := fleetBenchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadJSONFleet times the parse stage of disparity-analyze:
// ReadGraph (decode, build, Validate) on the fleet workload's JSON,
// ~445 KB for ~2100 tasks.
func BenchmarkReadJSONFleet(b *testing.B) {
	g, _ := fleetBenchGraph(b)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	js := buf.Bytes()
	b.SetBytes(int64(len(js)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disparity.ReadGraph(bytes.NewReader(js)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize times Algorithm 1 on a two-chain workload.
func BenchmarkOptimize(b *testing.B) {
	var (
		g      *disparity.Graph
		la, nu disparity.Chain
		a      *disparity.Analysis
	)
	for seed := int64(1); ; seed++ {
		var err error
		g, la, nu, err = disparity.GenerateTwoChains(10, disparity.GenConfig{Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		if a, err = disparity.Analyze(g); err == nil {
			break
		}
		if seed > 100 {
			b.Fatal("no schedulable two-chain workload")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Optimize(la, nu); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBackward regenerates the Lemma-4/5 vs baseline
// ablation table.
func BenchmarkAblationBackward(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{10, 20}
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationBackward(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTail regenerates the shared-tail sweep.
func BenchmarkAblationTail(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{0, 3, 6}
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationTail(cfg, 15); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationExec regenerates the execution-model comparison.
func BenchmarkAblationExec(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{10}
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationExec(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSemantics regenerates the implicit-vs-LET comparison.
func BenchmarkAblationSemantics(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{10}
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationSemantics(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationUtilization regenerates the load sweep.
func BenchmarkAblationUtilization(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{10, 40}
	cfg.ECUs = 1
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationUtilization(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGreedyBuffers regenerates the greedy-buffer table.
func BenchmarkAblationGreedyBuffers(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = []int{10}
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationGreedyBuffers(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactLET times the closed-form LET disparity analysis.
func BenchmarkExactLET(b *testing.B) {
	g, fusion, err := disparity.GenerateAutomotive(disparity.AutomotiveConfig{}, disparity.GenConfig{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < g.NumTasks(); i++ {
		g.Task(disparity.TaskID(i)).Sem = disparity.LET
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disparity.ExactLETDisparity(g, fusion); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenMerge times the simulator's stamp merging in isolation.
func BenchmarkTokenMerge(b *testing.B) {
	mk := func(tasks ...int) *sim.Token {
		t := &sim.Token{}
		for _, id := range tasks {
			t.Stamps = append(t.Stamps, sim.Stamp{Task: disparity.TaskID(id), Min: 1, Max: 2})
		}
		return t
	}
	tokens := []*sim.Token{mk(0, 2, 4, 6), mk(1, 2, 3, 8), mk(0, 5, 9)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := sim.Job{Out: tokens[i%3]}
		_ = j.Out.Span()
	}
}
