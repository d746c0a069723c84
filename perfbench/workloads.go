package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	disparity "repro"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/methods"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/timeu"
	tracespan "repro/internal/trace/span"
	"repro/internal/waters"
)

// Every op of a workload is the same fixed unit of work over inputs
// drawn from the seed, so the percentiles describe the program, not
// which inputs landed in a run.
const (
	// fleet-sim: runs per op, simulated horizon and observer warm-up of
	// each, as in `disparity-sim -exec wcet -runs 2 -random-offsets
	// -horizon 20s`.
	fleetSimRuns    = 2
	fleetSimHorizon = 20 * timeu.Second
	fleetSimWarmup  = timeu.Second
	// bounds-sweep: graphs per point. A graph's cost varies several-fold
	// with its chain count and greedy rounds, so with the default 10 the
	// op time depended on which graphs the seed drew: the quartiles of
	// ten seeds lay ~20% apart. 60 brings that to ~10%.
	boundsGraphs = 60
	// fig6-sweep: Fig. 6(a) with the default 10 graphs per point but
	// one offset draw each and a 1 s horizon, so the op stays under
	// 0.1 s while the simulation still dominates it.
	fig6Offsets = 1
	fig6Horizon = timeu.Second
	fig6Warmup  = 200 * timeu.Millisecond
	// fleetGraphSeed generates the graph fleet-sim simulates; the run's
	// seed draws the offsets and run seeds, as `disparity-sim -seed`
	// does for a given graph file.
	fleetGraphSeed = 1
	// fleet-analyze: S-diff-B greedy rounds. One round applies Algorithm
	// 1 once, to the worst pair, as `disparity-analyze -optimize` does;
	// each further round re-analyzes a 2.1k-task clone for a bound that
	// moves by microseconds.
	fleetGreedyRounds = 1
	// maxEvaluatedFrac is the share of chain pairs fleet-analyze may
	// evaluate before it stops being a parse/WCRT workload.
	maxEvaluatedFrac = 0.05
)

// sweepWorkers is the sweeps' worker count: one, so an op's time does
// not depend on how the box schedules a second worker.
const sweepWorkers = 1

type workload struct {
	name, why string
	setup     func(seed int64, rec *recorder) (instance, error)
}

// instance is a workload's generated inputs.
type instance interface {
	// op runs one unit of work. rec is nil in untraced runs.
	op(rec *recorder) (outcome, error)
	// guard fails when an op shows the workload no longer exercises
	// what it was chosen for; before and after bracket that op.
	guard(out outcome, before, after counters) error
}

// outcome is one op's output.
type outcome interface {
	// key encodes the output exactly; every op must reproduce the cold
	// set-up op's key.
	key() string
	// verify checks the paper's invariants on the output.
	verify() error
}

var workloads = []workload{
	{"fleet-analyze", "parse and WCRT of the ~2.1k-task fleet graph do most of the work; pair evaluation almost none", setupFleetAnalyze},
	{"bounds-sweep", "S-diff pair evaluation, greedy S-diff-B, the analysis cache and graph generation; no parse, no simulation", setupBoundsSweep},
	{"fig6-sweep", "the simulator's steady event loop without jump-ahead (random exec times)", setupFig6Sweep},
	{"fleet-sim", "jump-ahead cycle detection and the transient event loop on the 2.1k-task engine", setupFleetSim},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// enc builds an outcome key.
type enc []byte

func (e enc) int(v int64) enc { return append(strconv.AppendInt(e, v, 10), ' ') }
func (e enc) ints(vs []int64) enc {
	e = e.int(int64(len(vs)))
	for _, v := range vs {
		e = e.int(v)
	}
	return e
}
func (e enc) times(ts []timeu.Time) enc {
	e = e.int(int64(len(ts)))
	for _, t := range ts {
		e = e.int(int64(t))
	}
	return e
}
func (e enc) bool(b bool) enc {
	if b {
		return e.int(1)
	}
	return e.int(0)
}

// fleetGraph generates the default fleet graph for the seed and
// returns it as JSON, with the fusion task's name.
func fleetGraph(seed int64) (js []byte, fusion string, err error) {
	g, f, err := disparity.GenerateFleet(disparity.FleetConfig{}, disparity.GenConfig{Seed: seed})
	if err != nil {
		return nil, "", fmt.Errorf("generating fleet graph: %w", err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		return nil, "", fmt.Errorf("encoding fleet graph: %w", err)
	}
	return buf.Bytes(), g.Task(f).Name, nil
}

// taskByName resolves the task a workload analyzes, as `-task` does.
func taskByName(g *model.Graph, name string) (model.TaskID, error) {
	t, ok := g.TaskByName(name)
	if !ok {
		return 0, fmt.Errorf("graph has no task %q", name)
	}
	return t.ID, nil
}

// fleetAnalyze repeats what `disparity-analyze -graph fleet.json -task
// <fusion>` computes, without printing: parse, the schedulability
// table, the chains' backward bounds, validation and analysis set-up,
// the latency bounds and the disparity bounds, plus S-diff-B.
type fleetAnalyze struct {
	js   []byte
	task string
}

func setupFleetAnalyze(seed int64, _ *recorder) (instance, error) {
	js, fusion, err := fleetGraph(seed)
	if err != nil {
		return nil, err
	}
	return &fleetAnalyze{js: js, task: fusion}, nil
}

type analyzeOut struct {
	wcrt        []timeu.Time // per task
	chainBounds []timeu.Time // per chain: WCBT, BCBT
	latency     []timeu.Time // MRT, MRRT, MDA, MRDA
	pdiff       timeu.Time
	sdiff       timeu.Time
	sdiffB      timeu.Time
	argmax      []int64 // per bound: the worst pair's chains as task IDs, each ended by -1
	numPairs    []int64
	plans       int
	truncated   bool
}

func (o *analyzeOut) key() string {
	e := enc(nil).times(o.wcrt).times(o.chainBounds).times(o.latency).ints(o.argmax).ints(o.numPairs)
	return string(e.int(int64(o.pdiff)).int(int64(o.sdiff)).int(int64(o.sdiffB)).int(int64(o.plans)).bool(o.truncated))
}

func (o *analyzeOut) verify() error {
	if o.sdiff > o.pdiff {
		return fmt.Errorf("S-diff %v exceeds P-diff %v", o.sdiff, o.pdiff)
	}
	if o.sdiffB > o.sdiff {
		return fmt.Errorf("S-diff-B %v exceeds S-diff %v", o.sdiffB, o.sdiff)
	}
	return nil
}

func (w *fleetAnalyze) op(rec *recorder) (outcome, error) {
	out := &analyzeOut{}
	sp := rec.begin("model.parse")
	g, err := model.ReadJSON(bytes.NewReader(w.js))
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	task, err := taskByName(g, w.task)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("core.cache_new")
	cache := core.NewAnalysisCache()
	rec.end(sp)
	sp = rec.begin("sched.wcrt")
	res := cache.Sched(g, sched.NonPreemptiveFP)
	rec.end(sp)
	if !res.Schedulable {
		return nil, errors.New("fleet graph is not schedulable")
	}
	out.wcrt = make([]timeu.Time, g.NumTasks())
	for i := range out.wcrt {
		out.wcrt[i] = res.R(model.TaskID(i))
	}

	sp = rec.begin("model.validate")
	err = g.Validate()
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("core.cache_new")
	a, err := core.NewCached(g, cache)
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("backward.trie")
	idx, tb := a.Backward().IndexBounds(g, task, 0)
	out.chainBounds = make([]timeu.Time, 0, 2*idx.NumChains())
	for i := 0; i < idx.NumChains(); i++ {
		wcbt, bcbt := tb.Bounds(idx.Leaf(i), 0)
		out.chainBounds = append(out.chainBounds, wcbt, bcbt)
	}
	rec.end(sp)
	out.truncated = idx.Truncated()
	sp = rec.begin("backward.aggs")
	tb.SubtreeAggs()
	rec.end(sp)

	ctx := context.Background()
	ec := &methods.Context{Analysis: a, GreedyRounds: fleetGreedyRounds}
	sp = rec.begin("core.latency")
	for _, m := range methods.LatencyAnalytic() {
		r, err := m.Eval(ctx, ec, g, task)
		if err != nil {
			rec.end(sp)
			return nil, err
		}
		out.latency = append(out.latency, r.Bound)
		out.truncated = out.truncated || r.Truncated
	}
	rec.end(sp)

	before := rec.snapshot()
	sp = rec.begin("core.bound")
	var pairs int64
	for _, m := range methods.Bounds() {
		r, err := m.Eval(ctx, ec, g, task)
		if err != nil {
			rec.end(sp)
			return nil, err
		}
		switch m.Name() {
		case methods.PDiff.Name():
			out.pdiff = r.Bound
		case methods.SDiff.Name():
			out.sdiff = r.Bound
		}
		d := r.Detail
		out.numPairs = append(out.numPairs, int64(d.NumPairs))
		pairs += int64(d.NumPairs)
		if d.ArgMax >= 0 {
			pb := d.Pairs[d.ArgMax]
			for _, c := range []model.Chain{pb.Lambda, pb.Nu} {
				for _, t := range c {
					out.argmax = append(out.argmax, int64(t))
				}
				out.argmax = append(out.argmax, -1)
			}
		}
		out.truncated = out.truncated || r.Truncated
	}
	rec.end(sp)
	if rec != nil {
		evaluated, _ := snapshot().delta(before, "core.pairs.bounded")
		rec.count("pairs.evaluated", evaluated)
		rec.count("pairs.total", pairs)
	}

	sp = rec.begin("core.greedy")
	r, err := methods.SDiffB.Eval(ctx, ec, g, task)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	out.sdiffB = r.Bound
	out.plans = len(r.Greedy.Plans)
	out.truncated = out.truncated || r.Truncated
	return out, nil
}

func (w *fleetAnalyze) guard(o outcome, before, after counters) error {
	if o.(*analyzeOut).truncated {
		return errors.New("fleet-analyze: chain enumeration truncated; the op no longer analyzes the whole fleet")
	}
	frac, ok := after.ratio(before, "core.pairs.bounded", "core.pairs.pruned", "core.pairs.subtree_pruned")
	if !ok {
		return errors.New("fleet-analyze: the core.pairs.{bounded,pruned,subtree_pruned} counters are gone; cannot check pair pruning")
	}
	if frac >= maxEvaluatedFrac {
		return fmt.Errorf("fleet-analyze: %.3f of chain pairs evaluated (limit %.2f); pair evaluation no longer stays out of the way", frac, maxEvaluatedFrac)
	}
	return nil
}

// sweep runs one whole exp sweep per op. When tracing, it hands the
// sweep a span.Tracer and reads the spans back under its own span.
type sweep struct {
	cfg exp.Config
	run func(exp.Config) (*exp.Table, error)
	// check is the workload's guard over the cold op's counter deltas.
	check func(before, after counters) error
}

func setupBoundsSweep(seed int64, _ *recorder) (instance, error) {
	cfg := exp.Defaults()
	cfg.Seed = seed
	cfg.Workers = sweepWorkers
	cfg.GraphsPerPoint = boundsGraphs
	return &sweep{cfg: cfg, run: exp.BoundsSweep, check: func(before, after counters) error {
		d, ok := after.delta(before, "exp.graphs.truncated")
		if !ok {
			return errors.New("bounds-sweep: the exp.graphs.truncated counter is gone; cannot check for truncated graphs")
		}
		if d != 0 {
			return fmt.Errorf("bounds-sweep: %d truncated graphs were regenerated; the op is no longer the plain bounds sweep", d)
		}
		return nil
	}}, nil
}

func setupFig6Sweep(seed int64, _ *recorder) (instance, error) {
	cfg := exp.Defaults()
	cfg.Seed = seed
	cfg.Workers = sweepWorkers
	cfg.OffsetsPerGraph = fig6Offsets
	cfg.Horizon = fig6Horizon
	cfg.Warmup = fig6Warmup
	return &sweep{cfg: cfg, run: exp.Fig6a, check: func(before, after counters) error {
		codes := after.prefixDelta(before, "exp.sim.jump.")
		var runs int64
		for _, n := range codes {
			runs += n
		}
		if runs == 0 || codes["fallback.random-exec"] != runs {
			return fmt.Errorf("fig6-sweep: jump-ahead outcomes %v; every run must fall back with random-exec", codes)
		}
		return nil
	}}, nil
}

type tableOut struct{ t *exp.Table }

func (o tableOut) key() string {
	e := enc(o.t.Title + "\x00")
	for _, c := range o.t.Columns {
		e = append(e, c+"\x00"...)
	}
	for _, r := range o.t.Rows {
		e = e.int(int64(r.X))
		for _, v := range r.Values {
			e = e.int(int64(math.Float64bits(v)))
		}
	}
	return string(e)
}

// verify checks Sim ≤ S-diff ≤ P-diff and S-diff-B ≤ S-diff on every
// row, over whichever of the columns the table has. The rows are means
// over the same graphs, and float addition is monotone, so the
// per-graph order carries over.
func (o tableOut) verify() error {
	col := map[string]int{}
	for i, c := range o.t.Columns {
		col[c] = i
	}
	sim, sd, pd, sb := methods.Sim.Name(), methods.SDiff.Name(), methods.PDiff.Name(), methods.SDiffB.Name()
	order := [][2]string{{sim, sd}, {sd, pd}, {sb, sd}}
	checked := false
	for _, p := range order {
		lo, ok1 := col[p[0]]
		hi, ok2 := col[p[1]]
		if !ok1 || !ok2 {
			continue
		}
		checked = true
		for _, r := range o.t.Rows {
			if r.Values[lo] > r.Values[hi] {
				return fmt.Errorf("%s row %d: %s %v exceeds %s %v", o.t.Title, r.X, p[0], r.Values[lo], p[1], r.Values[hi])
			}
		}
	}
	if !checked || len(o.t.Rows) == 0 {
		return fmt.Errorf("%s: no rows or no bound columns to check", o.t.Title)
	}
	return nil
}

func (s *sweep) op(rec *recorder) (outcome, error) {
	cfg := s.cfg
	var tr *tracespan.Tracer
	var epoch int64
	if rec != nil {
		epoch = rec.now()
		tr = tracespan.New()
		cfg.Tracer = tr
	}
	sp := rec.begin("exp.sweep")
	t, err := s.run(cfg)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			return nil, err
		}
		if err := rec.adoptChrome(buf.Bytes(), sp, epoch); err != nil {
			return nil, err
		}
	}
	return tableOut{t}, nil
}

func (s *sweep) guard(_ outcome, before, after counters) error { return s.check(before, after) }

// fleetSim repeats `disparity-sim -graph fleet.json -exec wcet -runs 2
// -random-offsets -horizon 20s`: one sim.Batch per op, each run with
// its own offsets, observing every task's disparity.
type fleetSim struct {
	g       *model.Graph
	fusion  model.TaskID
	sdiff   timeu.Time
	pdiff   timeu.Time
	offsets [][]timeu.Time
	seeds   []int64
}

func setupFleetSim(seed int64, rec *recorder) (instance, error) {
	js, fusion, err := fleetGraph(fleetGraphSeed)
	if err != nil {
		return nil, err
	}
	sp := rec.begin("model.parse")
	g, err := model.ReadJSON(bytes.NewReader(js))
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	w := &fleetSim{g: g}
	if w.fusion, err = taskByName(g, fusion); err != nil {
		return nil, err
	}
	// The analytic bounds every simulated disparity must stay under.
	a, err := core.NewCached(g, core.NewAnalysisCache())
	if err != nil {
		return nil, err
	}
	sd, err := a.DisparityBound(w.fusion, core.SDiff, 0)
	if err != nil {
		return nil, err
	}
	pd, err := a.DisparityBound(w.fusion, core.PDiff, 0)
	if err != nil {
		return nil, err
	}
	w.sdiff, w.pdiff = sd.Bound, pd.Bound
	// Offsets and run seeds are drawn in disparity-sim's order.
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < fleetSimRuns; r++ {
		w.offsets = append(w.offsets, waters.DrawOffsets(g, rng, nil))
		w.seeds = append(w.seeds, rng.Int63())
	}
	return w, nil
}

type simOut struct {
	fusion  model.TaskID
	sdiff   timeu.Time
	pdiff   timeu.Time
	maxDisp []timeu.Time
	jobs    int64
	over    int64
	jumps   []sim.JumpStats
}

func (o *simOut) key() string {
	e := enc(nil).times(o.maxDisp).int(o.jobs).int(o.over)
	for _, j := range o.jumps {
		e = e.bool(j.Engaged).int(int64(j.Transient)).int(int64(j.Cycle)).int(j.Skipped).int(int64(j.SkippedTime))
	}
	return string(e)
}

func (o *simOut) verify() error {
	if o.sdiff > o.pdiff {
		return fmt.Errorf("S-diff %v exceeds P-diff %v", o.sdiff, o.pdiff)
	}
	if d := o.maxDisp[o.fusion]; d > o.sdiff {
		return fmt.Errorf("simulated disparity %v exceeds S-diff %v", d, o.sdiff)
	}
	return nil
}

func (w *fleetSim) op(rec *recorder) (outcome, error) {
	out := &simOut{fusion: w.fusion, sdiff: w.sdiff, pdiff: w.pdiff, maxDisp: make([]timeu.Time, w.g.NumTasks())}
	sp := rec.begin("sim.batch_new")
	batch, err := sim.NewBatch(w.g, sim.Config{Horizon: fleetSimHorizon, Exec: sim.WCETExec{}})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	for r := range w.seeds {
		obs := sim.NewDisparityObserver(fleetSimWarmup)
		sp := rec.begin("sim.run")
		res, err := batch.Run(sim.BatchRun{Seed: w.seeds[r], Offsets: w.offsets[r], Observers: []sim.Observer{obs}})
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", r, err)
		}
		out.jobs += res.Stats.Jobs
		out.over += res.Stats.Overruns
		out.jumps = append(out.jumps, res.Jump)
		for i := range out.maxDisp {
			out.maxDisp[i] = max(out.maxDisp[i], obs.Max(model.TaskID(i)))
		}
		rec.count("sim.runs", 1)
		rec.count("sim.horizon_ns", int64(fleetSimHorizon))
		rec.count("sim.skipped_ns", int64(res.Jump.SkippedTime))
		if res.Jump.Engaged {
			rec.count("sim.engaged", 1)
		}
	}
	rec.count("sim.jobs", out.jobs)
	return out, nil
}

func (w *fleetSim) guard(o outcome, _, _ counters) error {
	for r, j := range o.(*simOut).jumps {
		if !j.Engaged {
			return fmt.Errorf("fleet-sim: run %d did not jump ahead (%s); the op no longer exercises cycle detection", r, j.Code())
		}
	}
	return nil
}
