package main

import (
	"strings"

	"repro/internal/metrics"
)

// counters is one read of the program's process-wide counters. The
// harness reads them only through metrics.Snapshot: looking a counter
// up with metrics.C would create it, so a counter the program stopped
// keeping would read as a silent 0 instead of being absent.
type counters map[string]int64

func snapshot() counters {
	out := counters{}
	for _, e := range metrics.Default.Snapshot() {
		out[e.Name] = e.Value
	}
	return out
}

// delta is the change of a counter since before; ok is false when the
// program no longer keeps it.
func (c counters) delta(before counters, name string) (d int64, ok bool) {
	v, ok := c[name]
	return v - before[name], ok
}

// prefixDelta sums the change of every counter whose name starts with
// prefix, for counter families created per outcome (the sweeps' jump
// reason codes).
func (c counters) prefixDelta(before counters, prefix string) map[string]int64 {
	out := map[string]int64{}
	for name, v := range c {
		if strings.HasPrefix(name, prefix) {
			out[strings.TrimPrefix(name, prefix)] = v - before[name]
		}
	}
	return out
}

// ratio is Δnum / (Δnum + Δrest...); ok is false when any counter is
// absent. A window in which none of them moved reads 0.
func (c counters) ratio(before counters, num string, rest ...string) (float64, bool) {
	n, ok := c.delta(before, num)
	if !ok {
		return 0, false
	}
	total := n
	for _, name := range rest {
		d, ok := c.delta(before, name)
		if !ok {
			return 0, false
		}
		total += d
	}
	if total == 0 {
		return 0, true
	}
	return float64(n) / float64(total), true
}

// snapshot reads the counters when tracing and returns nil otherwise,
// so untraced ops pay nothing for it.
func (r *recorder) snapshot() counters {
	if r == nil {
		return nil
	}
	return snapshot()
}

// addDeltas adds the counters' change since before to rec.deltas. A
// counter the program no longer keeps stays absent.
func (r *recorder) addDeltas(before counters) {
	if r == nil {
		return
	}
	for name, v := range snapshot() {
		r.deltas[name] += v - before[name]
	}
}
