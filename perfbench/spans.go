package main

import (
	"encoding/json"
	"fmt"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"time"
)

// span is one timed call the harness made into a layer, or one span a
// sweep's own tracer emitted during such a call. Times are nanoseconds
// on the recorder's clock; parent indexes the enclosing span (-1 for a
// root).
type span struct {
	name       string
	start, end int64
	parent     int
	// alloc is the heap allocation made while a harness span was open;
	// spans read back from a sweep tracer carry none.
	alloc uint64
}

// recorder keeps the spans and counts of one traced phase in memory.
// A nil *recorder is the untraced harness: every method is a no-op, so
// the workloads run the same code either way.
type recorder struct {
	epoch  time.Time
	spans  []span
	open   []int
	counts map[string]int64
	// deltas sums the program counters' change over the traced ops.
	deltas counters
	sample []rtmetrics.Sample
}

func newRecorder() *recorder {
	return &recorder{
		epoch:  time.Now(),
		counts: make(map[string]int64),
		deltas: counters{},
		sample: []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) heapAllocs() uint64 {
	rtmetrics.Read(r.sample)
	return r.sample[0].Value.Uint64()
}

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	i := len(r.spans)
	// The allocation counter is read before the clock so the read's own
	// cost stays outside the span.
	a := r.heapAllocs()
	r.spans = append(r.spans, span{name: name, parent: parent, alloc: a, start: r.now()})
	r.open = append(r.open, i)
	return i
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	t := r.now()
	s := &r.spans[i]
	s.end = t
	s.alloc = r.heapAllocs() - s.alloc
	r.open = r.open[:len(r.open)-1]
}

// count adds n to a named count of the phase.
func (r *recorder) count(name string, n int64) {
	if r == nil {
		return
	}
	r.counts[name] += n
}

// chromeEvent is the part of a Chrome trace-event record the harness
// reads back from a sweep's span.Tracer.
type chromeEvent struct {
	Ph   string  `json:"ph"`
	Tid  int     `json:"tid"`
	Name string  `json:"name"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

// tracerSpanNames maps the spans the sweeps already emit onto the
// harness's layer vocabulary. "analysis" keeps its own name: below it
// the sweep emits no span for cache set-up or the S-diff-B greedy
// rounds, so its self time is theirs together.
var tracerSpanNames = map[string]string{
	"workload":  "exp.workload",
	"generate":  "exp.generate",
	"analysis":  "core.analysis",
	"wcrt":      "sched.wcrt",
	"enumerate": "core.bound",
	"disparity": "core.bound",
	"latency":   "core.latency",
	"simulate":  "sim.batch_new",
	"sim.run":   "sim.run",
	"sim.chunk": "sim.run",
}

// adoptChrome reads the Chrome trace JSON a sweep's tracer wrote and
// appends its complete events as children of span parent. offset is
// the tracer's epoch on the recorder clock. Nesting is rebuilt from
// time containment per track, which is how the sweeps nest spans.
func (r *recorder) adoptChrome(data []byte, parent int, offset int64) error {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("reading sweep trace: %w", err)
	}
	var evs []span
	var tids []int
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		name, ok := tracerSpanNames[e.Name]
		if !ok {
			name = "other." + e.Name
		}
		start := offset + int64(e.Ts*1e3+0.5)
		evs = append(evs, span{name: name, start: start, end: start + int64(e.Dur*1e3+0.5)})
		tids = append(tids, e.Tid)
	}
	order := make([]int, len(evs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := order[a], order[b]
		if tids[x] != tids[y] {
			return tids[x] < tids[y]
		}
		if evs[x].start != evs[y].start {
			return evs[x].start < evs[y].start
		}
		return evs[x].end > evs[y].end
	})
	var stack []int // indices into r.spans
	tid := 0
	for k, i := range order {
		if k == 0 || tids[i] != tid {
			tid, stack = tids[i], stack[:0]
		}
		ev := evs[i]
		for len(stack) > 0 && r.spans[stack[len(stack)-1]].end < ev.end {
			stack = stack[:len(stack)-1]
		}
		ev.parent = parent
		if len(stack) > 0 {
			ev.parent = stack[len(stack)-1]
		}
		r.spans = append(r.spans, ev)
		stack = append(stack, len(r.spans)-1)
	}
	return nil
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover. Children may overlap each other
// (parallel work) or stick out of the parent (clock skew between
// recorders); only the covered part of the parent's own interval is
// subtracted, once.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range kids[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		for k, v := range ivs {
			if k == 0 || v.lo > curHi {
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		covered += curHi - curLo
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerOf is the layer a span name belongs to: its first dotted
// component ("sched.wcrt" → "sched").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// spanTotals sums self time, allocation and span count per span name.
type spanTotals struct {
	selfNS map[string]int64
	alloc  map[string]uint64
	n      map[string]int
}

func totals(spans []span) spanTotals {
	t := spanTotals{selfNS: map[string]int64{}, alloc: map[string]uint64{}, n: map[string]int{}}
	for i, st := range selfTimes(spans) {
		name := spans[i].name
		t.selfNS[name] += st
		t.alloc[name] += spans[i].alloc
		t.n[name]++
	}
	return t
}
