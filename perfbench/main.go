// Command perfbench is the repository's benchmark: one process runs one
// workload for a fixed time and prints its metrics as JSON.
//
// Usage (from the repository root, via run.sh, which builds it):
//
//	bash perfbench/run.sh --workload fleet-analyze --seed 1 --seconds 25 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) times every layer call and reports the per-layer
// metrics. README.md lists the workloads, why each was chosen, and
// which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// setupRepeats is how often a run sets up from scratch; setup_s is
	// the median.
	setupRepeats = 5
	// warmupOps run untimed before the timed phase.
	warmupOps = 3
	// gcPercent is the GOGC the harness runs with. The workloads keep a
	// few MB live, so at the default 100 the runtime's 4 MB minimum heap
	// goal starts a collection every few MB allocated, ~70 a second on
	// bounds-sweep; op times then followed how the box scheduled the
	// collector more than the program. Allocation still shows in
	// alloc_mb_per_op.
	gcPercent = 400
)

func main() {
	debug.SetGCPercent(gcPercent)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 25, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := checkDefs(append(append([]metricDef(nil), endToEnd...), perLayer...)); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	env := map[string]any{
		"workload":   w.name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"ops":        res.ops,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"workers":    sweepWorkers,
		"gogc":       gcPercent,
		"commit":     commit(),
	}
	if err := printJSON(stdout, map[string]any{"env": env}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	metrics := map[string]any{}
	for _, d := range res.defs {
		if v, ok := res.values[d.name]; ok {
			metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		} else {
			fmt.Fprintf(stderr, "perfbench: %s is absent: a counter it reads is gone\n", d.name)
		}
	}
	if err := printJSON(stdout, map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// commit names the source revision the binary was built from, when the
// build recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" && dirty {
			return rev + "+modified"
		}
		if rev != "" {
			return rev
		}
	}
	return "unknown"
}

type result struct {
	defs              []metricDef
	values            map[string]float64
	ops               int
	attempted, failed int
}

// harness runs ops of one instance and checks each against the cold
// set-up op's output.
type harness struct {
	w                 workload
	inst              instance
	ref               string
	refErr            error
	attempted, failed int
}

// run executes one op, timing it, and checks its output against the
// cold op's; a mismatch counts the op as failed. When tracing, it also
// adds the op's counter deltas to rec.
func (h *harness) run(rec *recorder) (time.Duration, error) {
	before := rec.snapshot()
	t0 := time.Now()
	out, err := h.inst.op(rec)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("%s op: %w", h.w.name, err)
	}
	rec.addDeltas(before)
	h.check(out)
	return d, nil
}

// check counts one op, failed unless its output matches the cold op's
// and that output keeps the paper's order.
func (h *harness) check(out outcome) {
	h.attempted++
	if h.refErr != nil || out.key() != h.ref {
		h.failed++
	}
}

// phase runs rounds of ops until dur has passed, one op per recorder
// in recs per round, and returns each recorder's op times in ms. A
// traced run passes {nil, rec}: untraced and traced ops alternate, so
// both see the same box and their difference is what tracing costs.
func (h *harness) phase(dur time.Duration, recs ...*recorder) ([][]float64, time.Duration, error) {
	runtime.GC()
	ms := make([][]float64, len(recs))
	start := time.Now()
	for time.Since(start) < dur {
		for i, rec := range recs {
			d, err := h.run(rec)
			if err != nil {
				return nil, 0, err
			}
			ms[i] = append(ms[i], float64(d)/1e6)
		}
	}
	return ms, time.Since(start), nil
}

// setup generates the inputs setupRepeats times and runs the cold op on
// each; every repeat must reproduce the first one's output.
func setup(w workload, seed int64, rec *recorder) (*harness, []float64, error) {
	h := &harness{w: w}
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		before := snapshot()
		t0 := time.Now()
		inst, err := w.setup(seed, rec)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		out, err := inst.op(nil)
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("%s cold op: %w", w.name, err)
		}
		if err := inst.guard(out, before, snapshot()); err != nil {
			return nil, nil, err
		}
		h.inst = inst
		if i == 0 {
			h.ref, h.refErr = out.key(), out.verify()
			continue
		}
		h.check(out)
	}
	return h, secs, nil
}

func heapAllocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB reads the process's peak resident set (VmHWM). Getrusage's
// ru_maxrss is not used: it carries the high-water mark of whatever ran
// in the process before exec.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("reading VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func measure(w workload, seed int64, dur time.Duration, traced bool, log io.Writer) (*result, error) {
	var setupRec *recorder
	if traced {
		setupRec = newRecorder()
	}
	h, setupSecs, err := setup(w, seed, setupRec)
	if err != nil {
		return nil, err
	}
	if h.refErr != nil {
		fmt.Fprintf(log, "output check: %v\n", h.refErr)
	}
	for i := 0; i < warmupOps; i++ {
		if _, err := h.run(nil); err != nil {
			return nil, err
		}
	}
	res := &result{values: map[string]float64{}}
	if !traced {
		a0 := heapAllocBytes()
		phase, elapsed, err := h.phase(dur, nil)
		if err != nil {
			return nil, err
		}
		a1 := heapAllocBytes()
		ms := phase[0]
		p50, _, _ := percentile(ms, 0.5)
		p90, q90, ok := percentile(ms, 0.9)
		if !ok {
			return nil, fmt.Errorf("only %d ops in %v; raise --seconds", len(ms), dur)
		}
		if q90 != 0.9 {
			fmt.Fprintf(log, "op_ms_p90 reports the p%.1f: %d ops leave fewer than %d beyond the p90\n", 100*q90, len(ms), minBeyond)
		}
		res.defs, res.ops = endToEnd, len(ms)
		res.values["op_ms_p50"] = p50
		res.values["op_ms_p90"] = p90
		res.values["ops_per_s"] = float64(len(ms)) / elapsed.Seconds()
		res.values["setup_s"] = median(setupSecs)
		res.values["alloc_mb_per_op"] = float64(a1-a0) / 1e6 / float64(len(ms))
		if res.values["max_rss_mb"], err = peakRSSMB(); err != nil {
			return nil, fmt.Errorf("max_rss_mb: %w", err)
		}
	} else {
		rec := newRecorder()
		phase, _, err := h.phase(dur, nil, rec)
		if err != nil {
			return nil, err
		}
		plain, ms := phase[0], phase[1]
		res.defs, res.ops = perLayer, len(ms)
		layerMetrics(res.values, rec, setupRec, len(ms), log)
		res.values["trace.overhead_frac"] = median(ms)/median(plain) - 1
	}
	res.attempted, res.failed = h.attempted, h.failed
	if !traced {
		res.values["ok_frac"] = 1 - float64(h.failed)/float64(h.attempted)
	}
	return res, nil
}

// layerMetrics fills the per-layer metrics from one traced phase of ops
// ops. Times and allocations are per op; a layer the workload calls
// only during set-up (fleet-sim's parse) reports its time per set-up.
// Counts come from the ops' public return values where the workload
// recorded them, else from the counter deltas of the traced ops.
func layerMetrics(v map[string]float64, rec, setupRec *recorder, ops int, log io.Writer) {
	tot, st := totals(rec.spans), totals(setupRec.spans)
	// The traced ops' summed deltas, read against an empty baseline.
	after, before := rec.deltas, counters{}
	perOp := func(name string) (ns int64, alloc uint64, n float64) {
		if tot.n[name] > 0 || st.n[name] == 0 {
			return tot.selfNS[name], tot.alloc[name], float64(ops)
		}
		return st.selfNS[name], st.alloc[name], float64(setupRepeats)
	}
	for _, name := range []string{
		"model.parse", "model.validate", "sched.wcrt", "backward.trie", "backward.aggs",
		"core.bound", "core.greedy", "core.latency", "core.analysis", "core.cache_new",
		"exp.generate", "sim.run", "sim.batch_new",
	} {
		ns, _, n := perOp(name)
		v[name+"_ms"] = float64(ns) / 1e6 / n
	}
	for _, name := range []string{"model.parse", "sched.wcrt"} {
		_, alloc, n := perOp(name)
		v[name+"_alloc_mb"] = float64(alloc) / 1e6 / n
	}

	c := rec.counts
	if c["pairs.total"] > 0 {
		v["core.pairs_evaluated_frac"] = float64(c["pairs.evaluated"]) / float64(c["pairs.total"])
	} else if f, ok := after.ratio(before, "core.pairs.bounded", "core.pairs.pruned", "core.pairs.subtree_pruned"); ok {
		v["core.pairs_evaluated_frac"] = f
	}
	for _, layer := range []string{"sched", "enum", "pair", "task", "latency", "backward"} {
		if f, ok := after.ratio(before, "cache."+layer+".hits", "cache."+layer+".misses"); ok {
			v["core.cache_hit_ratio."+layer] = f
		}
	}
	used, ok1 := after.delta(before, "exp.graphs.used")
	gen, ok2 := after.delta(before, "exp.graphs.generated")
	if ok1 && ok2 {
		v["exp.gen_yield"] = 0
		if gen > 0 {
			v["exp.gen_yield"] = float64(used) / float64(gen)
		}
	}

	runS := float64(tot.selfNS["sim.run"]) / 1e9
	if c["sim.runs"] > 0 {
		v["sim.jump_engaged_frac"] = float64(c["sim.engaged"]) / float64(c["sim.runs"])
		v["sim.skipped_frac"] = float64(c["sim.skipped_ns"]) / float64(c["sim.horizon_ns"])
		v["sim.jobs_per_s"] = float64(c["sim.jobs"]) / runS
	} else {
		codes := after.prefixDelta(before, "exp.sim.jump.")
		var runs int64
		for _, n := range codes {
			runs += n
		}
		v["sim.jump_engaged_frac"], v["sim.skipped_frac"] = 0, 0
		if runs > 0 {
			v["sim.jump_engaged_frac"] = float64(codes["engaged"]) / float64(runs)
			if codes["engaged"] > 0 {
				// The sweeps return no JumpStats, so skipped time is
				// unknown once any run jumps.
				delete(v, "sim.skipped_frac")
			}
		}
		v["sim.jobs_per_s"] = 0
		if jobs, ok := after.delta(before, "exp.sim.jobs"); ok && runS > 0 {
			v["sim.jobs_per_s"] = float64(jobs) / runS
		} else if !ok {
			delete(v, "sim.jobs_per_s")
		}
	}

	// Self time per layer, as a share of all traced op time.
	layers := map[string]int64{}
	var all int64
	for name, ns := range tot.selfNS {
		layers[layerOf(name)] += ns
		all += ns
	}
	for _, l := range []string{"model", "sched", "backward", "core", "exp", "sim"} {
		v["layer."+l+"_frac"] = float64(layers[l]) / float64(all)
	}
	names := make([]string, 0, len(tot.selfNS))
	for name := range tot.selfNS {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return tot.selfNS[names[i]] > tot.selfNS[names[j]] })
	fmt.Fprintf(log, "self time per op over %d traced ops:\n", ops)
	for _, name := range names {
		fmt.Fprintf(log, "  %-18s %9.3f ms  %5.1f%%\n", name, float64(tot.selfNS[name])/1e6/float64(ops), 100*float64(tot.selfNS[name])/float64(all))
	}
}
