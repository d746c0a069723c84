package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/methods"
	tracespan "repro/internal/trace/span"
)

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return s
	}
	cases := []struct {
		n          int
		q          float64
		v, used    float64
		ok         bool
		beyondWant int
	}{
		{n: 100, q: 0.9, v: 90, used: 0.9, ok: true, beyondWant: 10},
		{n: 1000, q: 0.9, v: 900, used: 0.9, ok: true, beyondWant: 100},
		{n: 50, q: 0.9, v: 40, used: 0.8, ok: true, beyondWant: 10},
		{n: 99, q: 0.9, v: 89, used: 89.0 / 99, ok: true, beyondWant: 10},
		{n: 11, q: 0.5, v: 1, used: 1.0 / 11, ok: true, beyondWant: 10},
		{n: 10, q: 0.5, ok: false},
		{n: 0, q: 0.5, ok: false},
	}
	for _, c := range cases {
		s := seq(c.n)
		v, used, ok := percentile(s, c.q)
		if ok != c.ok || v != c.v || used != c.used {
			t.Errorf("percentile(1..%d, %v) = %v, %v, %v; want %v, %v, %v", c.n, c.q, v, used, ok, c.v, c.used, c.ok)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range s {
				if x > v {
					beyond++
				}
			}
			if beyond != c.beyondWant {
				t.Errorf("percentile(1..%d, %v) leaves %d samples beyond, want %d", c.n, c.q, beyond, c.beyondWant)
			}
		}
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer, append(append([]metricDef(nil), endToEnd...), perLayer...)} {
		if err := checkDefs(defs); err != nil {
			t.Fatal(err)
		}
	}
	bad := [][]metricDef{
		{{"", "ms"}},
		{{"_p50", "ms"}},
		{{".p50", "ms"}},
		{{"op ms", "ms"}},
		{{"op/ms", "ms"}},
		{{"op_ms_é", "ms"}},
		{{strings.Repeat("a", 65), "ms"}},
		{{"op_ms", ""}},
		{{"op_ms", "m s"}},
		{{"op_ms", strings.Repeat("s", 17)}},
		{{"op_ms", "ms"}, {"op_ms", "s"}},
	}
	for _, defs := range bad {
		if err := checkDefs(defs); err == nil {
			t.Errorf("checkDefs(%q) accepted an invalid metric", defs)
		}
	}
	for _, ok := range []string{"a", "0x", "core.cache_hit_ratio.sched", "sim.jobs_per_s", "a-b", strings.Repeat("a", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, ok := range []string{"ms", "1/s", "%", "count", "MB", "ratio"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
}

// The harness must report exactly the metrics and workloads
// BENCHMARK.json declares, with the same units.
func TestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: harness has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: harness %s (%s), BENCHMARK.json %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("harness has %d workloads, BENCHMARK.json %d", len(workloads), len(b.Workloads))
	}
	for i, w := range workloads {
		if w.name != b.Workloads[i].Name || w.why != b.Workloads[i].Why {
			t.Errorf("workload %d: harness %q (%q), BENCHMARK.json %q (%q)", i, w.name, w.why, b.Workloads[i].Name, b.Workloads[i].Why)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 50, parent: 0},  // overlaps a
		{name: "c", start: 90, end: 120, parent: 0}, // sticks out of root
		{name: "d", start: 25, end: 35, parent: 2},  // grandchild, under b
		{name: "e", start: 60, end: 60, parent: 0},  // empty
	}
	// root: [10,50] ∪ [90,100] covered → 100 − 50.
	want := []int64{50, 20, 20, 30, 10, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	tot := totals(spans)
	if tot.selfNS["root"] != 50 || tot.n["a"] != 1 {
		t.Errorf("totals = %+v", tot)
	}
	if layerOf("sched.wcrt") != "sched" || layerOf("root") != "root" {
		t.Error("layerOf does not split at the first dot")
	}
}

// Spans read back from a sweep's tracer nest by time containment per
// track, under the harness span they ran in, and take the harness's
// layer names.
func TestAdoptChromeNestsTracerSpans(t *testing.T) {
	var now int64
	tr := tracespan.NewWithClock(func() int64 { return now })
	tk := tr.WorkerTrack(0)
	at := func(ts int64) { now = ts }
	at(1000)
	w := tk.Start("workload")
	at(2000)
	g := tk.Start("generate")
	at(3000)
	g.End()
	a := tk.Start("analysis")
	at(3500)
	d := tk.Start("disparity")
	at(4500)
	d.End()
	at(6000)
	a.End()
	at(7000)
	w.End()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}

	rec := newRecorder()
	root := len(rec.spans)
	rec.spans = append(rec.spans, span{name: "exp.sweep", start: 500, end: 9000, parent: -1})
	if err := rec.adoptChrome(buf.Bytes(), root, 500); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, s := range rec.spans {
		byName[s.name] = i
	}
	parentOf := map[string]string{
		"exp.workload":  "exp.sweep",
		"exp.generate":  "exp.workload",
		"core.analysis": "exp.workload",
		"core.bound":    "core.analysis",
	}
	for child, parent := range parentOf {
		i, ok := byName[child]
		if !ok {
			t.Fatalf("span %s missing; have %v", child, byName)
		}
		if p := rec.spans[i].parent; p != byName[parent] {
			t.Errorf("parent of %s = %d, want %s", child, p, parent)
		}
	}
	tot := totals(rec.spans)
	want := map[string]int64{
		"exp.sweep":     8500 - 6000, // 9000−500 minus the workload span
		"exp.workload":  6000 - 1000 - 3000,
		"exp.generate":  1000,
		"core.analysis": 3000 - 1000,
		"core.bound":    1000,
	}
	for name, ns := range want {
		if tot.selfNS[name] != ns {
			t.Errorf("self(%s) = %d, want %d", name, tot.selfNS[name], ns)
		}
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *recorder
	sp := r.begin("x")
	r.end(sp)
	r.count("x", 1)
	if r.snapshot() != nil {
		t.Error("nil recorder took a snapshot")
	}
}

func TestTableVerifyKeepsThePapersOrder(t *testing.T) {
	tbl := func(cols []string, rows ...[]float64) tableOut {
		out := tableOut{&exp.Table{Title: "t", Columns: cols}}
		for i, r := range rows {
			out.t.AddRow(i, r...)
		}
		return out
	}
	fig6 := []string{methods.Sim.Name(), methods.PDiff.Name(), methods.SDiff.Name()}
	bounds := []string{methods.PDiff.Name(), methods.SDiff.Name(), methods.SDiffB.Name()}
	cases := []struct {
		name string
		out  tableOut
		ok   bool
	}{
		{"fig6 in order", tbl(fig6, []float64{1, 3, 2}, []float64{2, 2, 2}), true},
		{"Sim above S-diff", tbl(fig6, []float64{1, 3, 2}, []float64{2.5, 3, 2}), false},
		{"S-diff above P-diff", tbl(fig6, []float64{1, 3, 4}), false},
		{"bounds in order", tbl(bounds, []float64{3, 2, 1}), true},
		{"S-diff-B above S-diff", tbl(bounds, []float64{3, 2, 2.5}), false},
		{"no rows", tbl(bounds), false},
		{"no bound columns", tbl([]string{"a", "b"}, []float64{1, 2}), false},
	}
	for _, c := range cases {
		if err := c.out.verify(); (err == nil) != c.ok {
			t.Errorf("%s: verify() = %v", c.name, err)
		}
	}
}
