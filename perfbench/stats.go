package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of the samples and the
// quantile actually reported. When fewer than minBeyond samples lie
// above the q-quantile, it falls back to the highest quantile that has
// them; ok is false when even the smallest sample has fewer above it.
func percentile(samples []float64, q float64) (v, used float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if n-1-k < minBeyond {
		k = n - 1 - minBeyond
		if k < 0 {
			return 0, 0, false
		}
	}
	return s[k], float64(k+1) / float64(n), true
}

func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metricDef is one reported metric: its name and unit, as declared in
// BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"max_rss_mb", "MB"},
	{"ok_frac", "ratio"},
}

// perLayer are the metrics a traced run reports. Times and allocations
// are per op; see README.md for what each one times and which
// end-to-end metric it should move.
var perLayer = []metricDef{
	{"model.parse_ms", "ms"},
	{"model.parse_alloc_mb", "MB"},
	{"model.validate_ms", "ms"},
	{"sched.wcrt_ms", "ms"},
	{"sched.wcrt_alloc_mb", "MB"},
	{"backward.trie_ms", "ms"},
	{"backward.aggs_ms", "ms"},
	{"core.bound_ms", "ms"},
	{"core.pairs_evaluated_frac", "ratio"},
	{"core.greedy_ms", "ms"},
	{"core.latency_ms", "ms"},
	{"core.analysis_ms", "ms"},
	{"core.cache_new_ms", "ms"},
	{"core.cache_hit_ratio.sched", "ratio"},
	{"core.cache_hit_ratio.enum", "ratio"},
	{"core.cache_hit_ratio.pair", "ratio"},
	{"core.cache_hit_ratio.task", "ratio"},
	{"core.cache_hit_ratio.latency", "ratio"},
	{"core.cache_hit_ratio.backward", "ratio"},
	{"exp.generate_ms", "ms"},
	{"exp.gen_yield", "ratio"},
	{"sim.run_ms", "ms"},
	{"sim.jobs_per_s", "1/s"},
	{"sim.batch_new_ms", "ms"},
	{"sim.jump_engaged_frac", "ratio"},
	{"sim.skipped_frac", "ratio"},
	{"layer.model_frac", "ratio"},
	{"layer.sched_frac", "ratio"},
	{"layer.backward_frac", "ratio"},
	{"layer.core_frac", "ratio"},
	{"layer.exp_frac", "ratio"},
	{"layer.sim_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// validName reports whether s is a metric name the benchmark contract
// accepts: 1–64 of [A-Za-z0-9_.-], starting with a letter or digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a unit the contract accepts: 1–16 of
// [A-Za-z0-9_/%.-].
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for _, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && c != '_' && c != '/' && c != '%' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// checkDefs rejects a metric list with an invalid or repeated name or
// a missing or invalid unit.
func checkDefs(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !validName(d.name) {
			return fmt.Errorf("metric name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", d.name)
		}
		if !validUnit(d.unit) {
			return fmt.Errorf("metric %s has unit %q, want 1-16 of [A-Za-z0-9_/%%.-]", d.name, d.unit)
		}
		if seen[d.name] {
			return fmt.Errorf("metric %s is declared twice", d.name)
		}
		seen[d.name] = true
	}
	return nil
}
