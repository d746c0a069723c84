// Package sched provides fixed-priority response-time analysis for the
// per-ECU schedulers of the cause-effect graph model.
//
// The paper schedules the tasks of each ECU with a non-preemptive
// fixed-priority (NP-FP) policy and assumes every task is schedulable
// (R(τ) ≤ T(τ)). The worst-case response times R(τ) computed here feed the
// backward-time bounds of Lemmas 4 and 5. The NP-FP analysis is the
// classical sufficient test (in the style of von der Brüggen et al., RTS
// 2015, the paper's reference [13]): the start time of a job is delayed by
// at most one lower-priority blocking job plus higher-priority
// interference, after which the job runs to completion without preemption.
package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/timeu"
)

var (
	analysesRun = metrics.C("sched.analyses")
	fpIters     = metrics.C("sched.fixedpoint.iterations")
)

// Policy selects the response-time analysis variant.
type Policy int

const (
	// NonPreemptiveFP is the paper's scheduler: once a job starts it runs
	// to completion; among ready jobs the highest priority starts first.
	NonPreemptiveFP Policy = iota
	// PreemptiveFP is classical preemptive fixed priority, provided for
	// baseline comparisons.
	PreemptiveFP
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case NonPreemptiveFP:
		return "np-fp"
	case PreemptiveFP:
		return "p-fp"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Result holds the outcome of a response-time analysis over a whole graph.
type Result struct {
	// WCRT maps every task to an upper bound on its worst-case response
	// time. Unscheduled source tasks get 0.
	WCRT []timeu.Time
	// Schedulable reports R(τ) ≤ D(τ) for every task (D = the effective
	// deadline: the task's constrained deadline or its period).
	Schedulable bool
	// Unschedulable lists the tasks violating R(τ) ≤ D(τ).
	Unschedulable []model.TaskID
}

// R returns the WCRT bound for one task.
func (r *Result) R(id model.TaskID) timeu.Time { return r.WCRT[id] }

// maxIterations caps the response-time fixed-point iteration; the analysis
// declares a task unschedulable rather than looping forever on divergent
// (overloaded) inputs.
const maxIterations = 1 << 16

// Analyze computes WCRT bounds for every task of the graph under the given
// policy. Tasks with ECU = model.NoECU (external stimuli) get R = 0.
//
// An unschedulable task does not abort the analysis: its WCRT is set to
// the divergent fixed-point value (capped) and listed in
// Result.Unschedulable, so callers can report all violations at once.
func Analyze(g *model.Graph, policy Policy) *Result {
	analysesRun.Inc()
	n := g.NumTasks()
	res := &Result{WCRT: make([]timeu.Time, n), Schedulable: true}
	late := make([]bool, n)
	order := byECUPriority(g)
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && order[hi].ECU == order[lo].ECU {
			hi++
		}
		analyzeECU(order[lo:hi], policy, res.WCRT, late)
		lo = hi
	}
	for i, l := range late {
		if l {
			res.Schedulable = false
			res.Unschedulable = append(res.Unschedulable, model.TaskID(i))
		}
	}
	return res
}

// byECUPriority returns the scheduled tasks sorted by (ECU, Prio, ID),
// so each ECU's tasks form one contiguous segment in priority order.
// It is rebuilt per Analyze call, never cached on the graph, because
// priority assignment rewrites Prio in place. Keying on the ECU value
// itself, not an index into g.ECUs(), keeps ECU IDs that Validate
// rejects analysable.
func byECUPriority(g *model.Graph) []*model.Task {
	order := make([]*model.Task, 0, g.NumTasks())
	for i := 0; i < g.NumTasks(); i++ {
		if t := g.Task(model.TaskID(i)); t.ECU != model.NoECU {
			order = append(order, t)
		}
	}
	slices.SortFunc(order, func(a, b *model.Task) int {
		if c := cmp.Compare(a.ECU, b.ECU); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Prio, b.Prio); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return order
}

// analyzeECU bounds the WCRT of one ECU's tasks, given in (Prio, ID)
// order, into wcrt and flags deadline misses in late. A task's hp is
// the prefix of seg with strictly smaller Prio; every other task blocks
// it, those sharing its priority included. Walking from the lowest
// priority up carries the blocking maximum, so no task scans the ECU.
func analyzeECU(seg []*model.Task, policy Policy, wcrt []timeu.Time, late []bool) {
	var lower timeu.Time // max WCET of seg[k+1:]
	for k := len(seg) - 1; k >= 0; k-- {
		task := seg[k]
		h, blk := k, lower
		for h > 0 && seg[h-1].Prio == task.Prio {
			h--
			blk = timeu.Max(blk, seg[h].WCET)
		}
		var r timeu.Time
		var ok bool
		switch policy {
		case NonPreemptiveFP:
			r, ok = npResponseTime(task, seg[:h], blk)
		case PreemptiveFP:
			r, ok = pResponseTime(task, seg[:h])
		default:
			panic(fmt.Sprintf("sched: unknown policy %d", policy))
		}
		wcrt[task.ID] = r
		late[task.ID] = !ok || r > task.EffectiveDeadline()
		lower = timeu.Max(lower, task.WCET)
	}
}

// npResponseTime bounds the WCRT of a task under non-preemptive fixed
// priority with the multi-job busy-period analysis of Davis, Burns, Bril
// and Lukkien (RTS 2007). Under non-preemption the first job after the
// critical instant is NOT necessarily the worst (the "refuted" part of
// that paper's title), so every instance q in the level-i busy period is
// examined:
//
//	blk    = max_{j ∈ lp} W_j
//	L      = smallest t > 0 with t = blk + Σ_{j ∈ hp ∪ {i}} ⌈t/T_j⌉·W_j
//	w(q)   = smallest w with w = blk + q·W_i + Σ_{j ∈ hp} (⌊w/T_j⌋+1)·W_j
//	R      = max over q = 0..⌈L/T_i⌉−1 of w(q) − q·T_i + W_i
func npResponseTime(task *model.Task, hp []*model.Task, blk timeu.Time) (timeu.Time, bool) {
	// Level-i busy period length.
	busy := blk + task.WCET
	for _, o := range hp {
		busy += o.WCET
	}
	if busy <= 0 {
		// Nothing competes and the task itself is instantaneous.
		return task.WCET, true
	}
	for iter := 0; ; iter++ {
		next := blk + timeu.Time(timeu.CeilDiv(busy, task.Period))*task.WCET
		for _, o := range hp {
			next += timeu.Time(timeu.CeilDiv(busy, o.Period)) * o.WCET
		}
		if next == busy {
			break
		}
		busy = next
		// A busy period beyond a few hyperperiods means overload; the
		// q = 0 analysis below will exceed the period and flag it.
		if iter >= maxIterations || busy > 1<<20*task.Period {
			break
		}
	}
	q := int64(timeu.CeilDiv(busy, task.Period))
	if q < 1 {
		q = 1
	}

	var worst timeu.Time
	ok := true
	iters := int64(0)
	defer func() { fpIters.Add(iters) }()
	for k := int64(0); k < q; k++ {
		w := blk + timeu.Time(k)*task.WCET
		for _, o := range hp {
			w += o.WCET
		}
		converged := false
		for iter := 0; iter < maxIterations; iter++ {
			iters++
			next := blk + timeu.Time(k)*task.WCET
			for _, o := range hp {
				next += timeu.Time(timeu.FloorDiv(w, o.Period)+1) * o.WCET
			}
			if next == w {
				converged = true
				break
			}
			w = next
			if w-timeu.Time(k)*task.Period > task.Period {
				// This instance already misses its deadline.
				break
			}
		}
		r := w - timeu.Time(k)*task.Period + task.WCET
		worst = timeu.Max(worst, r)
		if !converged {
			ok = false
			break
		}
	}
	return worst, ok
}

// pResponseTime bounds the WCRT under preemptive fixed priority using the
// classical r = W_i + Σ_{j ∈ hp} ⌈r/T_j⌉·W_j recurrence.
func pResponseTime(task *model.Task, hp []*model.Task) (timeu.Time, bool) {
	r := task.WCET
	for iter := 0; iter < maxIterations; iter++ {
		fpIters.Inc()
		next := task.WCET
		for _, o := range hp {
			next += timeu.Time(timeu.CeilDiv(r, o.Period)) * o.WCET
		}
		if next == r {
			return r, true
		}
		if next > task.Period {
			return next, false
		}
		r = next
	}
	return r, false
}

// Utilization returns the total WCET utilization of the tasks mapped to
// one ECU.
func Utilization(g *model.Graph, ecu model.ECUID) float64 {
	var u float64
	for _, id := range g.TasksOnECU(ecu) {
		t := g.Task(id)
		u += float64(t.WCET) / float64(t.Period)
	}
	return u
}

// TotalUtilization returns the WCET utilization summed over all ECUs.
func TotalUtilization(g *model.Graph) float64 {
	var u float64
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(model.TaskID(i))
		if t.ECU == model.NoECU {
			continue
		}
		u += float64(t.WCET) / float64(t.Period)
	}
	return u
}
