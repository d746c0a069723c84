// Package model defines the cause-effect graph studied by the paper: a DAG
// of periodic tasks statically mapped onto ECUs, communicating through
// bounded channels with implicit (read-at-start / write-at-finish)
// semantics.
//
// The model follows §II of the paper:
//
//   - each vertex is a task (W, B, T): worst-case execution time, best-case
//     execution time, and period;
//   - each edge is a channel, by default a size-1 overwrite register;
//   - each task is statically mapped to an ECU; tasks on the same ECU are
//     scheduled by non-preemptive fixed priority;
//   - communication between ECUs is modeled as a periodic task on a bus ECU;
//   - source tasks (no predecessors) have W = B = 0 and act as external
//     stimuli whose output tokens are stamped with their release times.
package model

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/timeu"
)

// TaskID identifies a task within a Graph. IDs are dense indices assigned
// in insertion order.
type TaskID int

// ECUID identifies a processing unit (or bus) within a Graph.
type ECUID int

// NoECU marks a task that is not scheduled on any processing unit; only
// source tasks (external stimuli) may carry it.
const NoECU ECUID = -1

// ECUKind distinguishes compute units from communication buses. Both
// schedule their load non-preemptively by fixed priority; the distinction
// is purely descriptive (a bus's "tasks" are message frames).
type ECUKind int

const (
	// Compute is a processing unit executing software tasks.
	Compute ECUKind = iota
	// Bus is a communication medium (e.g. CAN) whose tasks are frames.
	Bus
)

// String returns "compute" or "bus".
func (k ECUKind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Bus:
		return "bus"
	default:
		return fmt.Sprintf("ECUKind(%d)", int(k))
	}
}

// ECU is a processing unit or bus hosting a set of tasks.
type ECU struct {
	ID   ECUID
	Name string
	Kind ECUKind
}

// Semantics selects a task's communication timing.
type Semantics int

const (
	// Implicit is the paper's (and AUTOSAR's default) semantics: inputs
	// are read when a job starts executing, outputs written when it
	// finishes.
	Implicit Semantics = iota
	// LET is the Logical Execution Time paradigm: inputs are read at the
	// job's release and outputs published exactly at its deadline
	// (release + period), making data flow independent of scheduling and
	// execution times. It trades latency for determinism.
	LET
)

// String names the semantics.
func (s Semantics) String() string {
	switch s {
	case Implicit:
		return "implicit"
	case LET:
		return "let"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// Task is one vertex of the cause-effect graph. The zero Offset releases
// the first job at system start; analyses are offset-oblivious (the paper's
// bounds hold for arbitrary offsets) but the simulator honors Offset.
type Task struct {
	ID   TaskID
	Name string

	// WCET and BCET bound the execution time of every job. Source tasks
	// have WCET = BCET = 0.
	WCET timeu.Time
	BCET timeu.Time

	// Period separates consecutive job releases.
	Period timeu.Time

	// Deadline is the relative deadline each job must finish by. Zero
	// selects the implicit deadline (= Period); otherwise it must lie in
	// [WCET, Period] (constrained deadlines).
	Deadline timeu.Time

	// MaxPeriod, when set, makes the task sporadic with bounded
	// inter-arrival times in [Period, MaxPeriod] (Period remains the
	// minimum separation used by the response-time analysis). Zero means
	// strictly periodic. Sporadic releases void Theorem 2's
	// release-alignment argument, so the analysis falls back to
	// Theorem-1-style bounds (without same-head flooring) for pairs
	// involving sporadic tasks.
	MaxPeriod timeu.Time

	// Offset delays the first release relative to system start.
	Offset timeu.Time

	// Prio orders tasks on one ECU: smaller value = higher priority.
	Prio int

	// ECU is the processing unit the task is statically mapped to, or
	// NoECU for unscheduled external stimuli.
	ECU ECUID

	// Sem selects the communication timing (implicit by default). For
	// unscheduled stimuli the distinction is immaterial: they publish at
	// release either way.
	Sem Semantics
}

// Edge is a directed channel from Src to Dst. Cap is the buffer capacity:
// 1 is the paper's default overwrite register; larger values are the FIFO
// buffers introduced by the optimization of §IV.
type Edge struct {
	Src, Dst TaskID
	Cap      int
}

// Graph is a cause-effect graph: tasks, channels, and ECUs. Build one with
// NewGraph, AddECU, AddTask, and AddEdge, then call Validate (or use the
// higher-level builder in the public package, which validates for you).
type Graph struct {
	tasks []Task
	ecus  []ECU
	edges []Edge

	// adjacency, rebuilt lazily by ensureAdj.
	succ, pred [][]TaskID
	edgeIdx    map[[2]TaskID]int
	adjValid   bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{edgeIdx: make(map[[2]TaskID]int)}
}

// AddECU registers a processing unit and returns its ID. An empty name
// gets the default "ecuN".
func (g *Graph) AddECU(name string, kind ECUKind) ECUID {
	id := ECUID(len(g.ecus))
	if name == "" {
		name = fmt.Sprintf("ecu%d", id)
	}
	g.ecus = append(g.ecus, ECU{ID: id, Name: name, Kind: kind})
	return id
}

// AddTask adds a task and returns its ID. The ID field of the argument is
// ignored and assigned by the graph.
func (g *Graph) AddTask(t Task) TaskID {
	t.ID = TaskID(len(g.tasks))
	if t.Name == "" {
		t.Name = fmt.Sprintf("task%d", t.ID)
	}
	g.tasks = append(g.tasks, t)
	g.adjValid = false
	return t.ID
}

// AddEdge adds a channel from src to dst with capacity 1.
func (g *Graph) AddEdge(src, dst TaskID) error { return g.AddBufferedEdge(src, dst, 1) }

// AddBufferedEdge adds a channel from src to dst with the given capacity.
func (g *Graph) AddBufferedEdge(src, dst TaskID, capacity int) error {
	if !g.valid(src) || !g.valid(dst) {
		return fmt.Errorf("model: edge (%d,%d) references unknown task", src, dst)
	}
	if src == dst {
		return fmt.Errorf("model: self-loop on task %d", src)
	}
	if capacity < 1 {
		return fmt.Errorf("model: edge (%d,%d) capacity %d < 1", src, dst, capacity)
	}
	if _, dup := g.edgeIdx[[2]TaskID{src, dst}]; dup {
		return fmt.Errorf("model: duplicate edge (%s,%s)", g.tasks[src].Name, g.tasks[dst].Name)
	}
	g.edgeIdx[[2]TaskID{src, dst}] = len(g.edges)
	g.edges = append(g.edges, Edge{Src: src, Dst: dst, Cap: capacity})
	g.adjValid = false
	return nil
}

// SetBuffer resizes the channel from src to dst; it is how Algorithm 1's
// decision is applied to a graph.
func (g *Graph) SetBuffer(src, dst TaskID, capacity int) error {
	i, ok := g.edgeIdx[[2]TaskID{src, dst}]
	if !ok {
		return fmt.Errorf("model: no edge (%d,%d)", src, dst)
	}
	if capacity < 1 {
		return fmt.Errorf("model: capacity %d < 1", capacity)
	}
	g.edges[i].Cap = capacity
	return nil
}

// Buffer reports the capacity of the channel from src to dst (0 if the
// edge does not exist).
func (g *Graph) Buffer(src, dst TaskID) int {
	if i, ok := g.edgeIdx[[2]TaskID{src, dst}]; ok {
		return g.edges[i].Cap
	}
	return 0
}

func (g *Graph) valid(id TaskID) bool { return id >= 0 && int(id) < len(g.tasks) }

// NumTasks returns the number of tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges returns the number of channels.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumECUs returns the number of registered ECUs.
func (g *Graph) NumECUs() int { return len(g.ecus) }

// Task returns the task with the given ID. It panics on an unknown ID,
// mirroring slice indexing.
func (g *Graph) Task(id TaskID) *Task { return &g.tasks[id] }

// EffectiveDeadline returns the task's relative deadline: Deadline when
// set, Period otherwise (implicit deadlines).
func (t *Task) EffectiveDeadline() timeu.Time {
	if t.Deadline != 0 {
		return t.Deadline
	}
	return t.Period
}

// Sporadic reports whether the task's releases may drift apart
// (MaxPeriod > Period).
func (t *Task) Sporadic() bool { return t.MaxPeriod > t.Period }

// MaxInterArrival returns the largest separation between consecutive
// releases: MaxPeriod for sporadic tasks, Period otherwise.
func (t *Task) MaxInterArrival() timeu.Time {
	if t.Sporadic() {
		return t.MaxPeriod
	}
	return t.Period
}

// TaskByName returns the first task with the given name.
func (g *Graph) TaskByName(name string) (*Task, bool) {
	for i := range g.tasks {
		if g.tasks[i].Name == name {
			return &g.tasks[i], true
		}
	}
	return nil, false
}

// Tasks returns the tasks in ID order. The slice aliases graph storage and
// must not be appended to.
func (g *Graph) Tasks() []Task { return g.tasks }

// ECU returns the ECU with the given ID.
func (g *Graph) ECU(id ECUID) *ECU { return &g.ecus[id] }

// ECUs returns the ECUs in ID order.
func (g *Graph) ECUs() []ECU { return g.ecus }

// Edges returns the channels in insertion order.
func (g *Graph) Edges() []Edge { return g.edges }

// HasEdge reports whether a channel from src to dst exists.
func (g *Graph) HasEdge(src, dst TaskID) bool {
	_, ok := g.edgeIdx[[2]TaskID{src, dst}]
	return ok
}

func (g *Graph) ensureAdj() {
	if g.adjValid {
		return
	}
	n := len(g.tasks)
	g.succ = make([][]TaskID, n)
	g.pred = make([][]TaskID, n)
	for _, e := range g.edges {
		g.succ[e.Src] = append(g.succ[e.Src], e.Dst)
		g.pred[e.Dst] = append(g.pred[e.Dst], e.Src)
	}
	for i := 0; i < n; i++ {
		slices.Sort(g.succ[i])
		slices.Sort(g.pred[i])
	}
	g.adjValid = true
}

// Successors returns the tasks reading from id's output channels.
func (g *Graph) Successors(id TaskID) []TaskID {
	g.ensureAdj()
	return g.succ[id]
}

// Predecessors returns the tasks writing to id's input channels.
func (g *Graph) Predecessors(id TaskID) []TaskID {
	g.ensureAdj()
	return g.pred[id]
}

// IsSource reports whether the task has no incoming channels.
func (g *Graph) IsSource(id TaskID) bool { return len(g.Predecessors(id)) == 0 }

// IsSink reports whether the task has no outgoing channels.
func (g *Graph) IsSink(id TaskID) bool { return len(g.Successors(id)) == 0 }

// Sources returns all tasks with no incoming channels, in ID order.
func (g *Graph) Sources() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if g.IsSource(TaskID(i)) {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Sinks returns all tasks with no outgoing channels, in ID order.
func (g *Graph) Sinks() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if g.IsSink(TaskID(i)) {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// TasksOnECU returns the IDs of tasks mapped to the given ECU, in ID order.
func (g *Graph) TasksOnECU(ecu ECUID) []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if g.tasks[i].ECU == ecu {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// HigherPriority reports whether task a has higher priority than task b
// and both live on the same ECU — the hp(·) relation of the paper.
func (g *Graph) HigherPriority(a, b TaskID) bool {
	ta, tb := &g.tasks[a], &g.tasks[b]
	return ta.ECU != NoECU && ta.ECU == tb.ECU && ta.Prio < tb.Prio
}

// SameECU reports whether two tasks are mapped to the same processing
// unit. Tasks with NoECU are never on the same ECU, not even each other's.
func (g *Graph) SameECU(a, b TaskID) bool {
	ea, eb := g.tasks[a].ECU, g.tasks[b].ECU
	return ea != NoECU && ea == eb
}

// TopoOrder returns a topological order of the tasks, or an error if the
// graph has a cycle. Among ready tasks the smallest ID always comes
// first, so the order is deterministic; a binary min-heap keeps each
// pick O(log n).
func (g *Graph) TopoOrder() ([]TaskID, error) {
	g.ensureAdj()
	n := len(g.tasks)
	indeg := make([]int, n)
	for _, e := range g.edges {
		indeg[e.Dst]++
	}
	// Appending in increasing ID order already satisfies the heap order.
	ready := make([]TaskID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, TaskID(i))
		}
	}
	order := make([]TaskID, 0, n)
	for len(ready) > 0 {
		var v TaskID
		v, ready = popMin(ready)
		order = append(order, v)
		for _, s := range g.succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = pushMin(ready, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("model: graph has a cycle")
	}
	return order, nil
}

// pushMin adds v to the binary min-heap h.
func pushMin(h []TaskID, v TaskID) []TaskID {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// popMin removes and returns the smallest element of the non-empty
// binary min-heap h.
func popMin(h []TaskID) (TaskID, []TaskID) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top, h
}

// Validate checks structural invariants: acyclicity, positive periods,
// 0 ≤ BCET ≤ WCET, W = B = 0 for unscheduled stimulus tasks (which must
// also be sources), ECU references in range,
// priorities unique per ECU, and WCET ≤ period (a necessary condition for
// the paper's schedulability assumption R(τ) ≤ T(τ)).
func (g *Graph) Validate() error {
	for i := range g.tasks {
		t := &g.tasks[i]
		if t.Period <= 0 {
			return fmt.Errorf("model: task %s has non-positive period %v", t.Name, t.Period)
		}
		if t.BCET < 0 || t.WCET < t.BCET {
			return fmt.Errorf("model: task %s has invalid execution bounds [%v,%v]", t.Name, t.BCET, t.WCET)
		}
		if t.WCET > t.Period {
			return fmt.Errorf("model: task %s has WCET %v > period %v", t.Name, t.WCET, t.Period)
		}
		if t.Deadline != 0 && (t.Deadline < t.WCET || t.Deadline > t.Period) {
			return fmt.Errorf("model: task %s has deadline %v outside [WCET %v, period %v]",
				t.Name, t.Deadline, t.WCET, t.Period)
		}
		if t.MaxPeriod != 0 && t.MaxPeriod < t.Period {
			return fmt.Errorf("model: task %s has max period %v below period %v",
				t.Name, t.MaxPeriod, t.Period)
		}
		if t.Offset < 0 {
			return fmt.Errorf("model: task %s has negative offset %v", t.Name, t.Offset)
		}
		if t.ECU != NoECU && (t.ECU < 0 || int(t.ECU) >= len(g.ecus)) {
			return fmt.Errorf("model: task %s references unknown ECU %d", t.Name, t.ECU)
		}
		if t.ECU == NoECU {
			if t.WCET != 0 || t.BCET != 0 {
				return fmt.Errorf("model: unscheduled task %s must have WCET = BCET = 0 (has [%v,%v])", t.Name, t.BCET, t.WCET)
			}
			if !g.IsSource(TaskID(i)) {
				return fmt.Errorf("model: unscheduled task %s has predecessors; only external stimuli may omit an ECU", t.Name)
			}
		}
	}
	// Priorities must totally order the tasks of each ECU.
	type ecuPrio struct {
		ecu  ECUID
		prio int
	}
	byPrio := make(map[ecuPrio]TaskID, len(g.tasks))
	for i := range g.tasks {
		t := &g.tasks[i]
		if t.ECU == NoECU {
			continue
		}
		k := ecuPrio{t.ECU, t.Prio}
		if prev, dup := byPrio[k]; dup {
			return fmt.Errorf("model: tasks %s and %s share priority %d on ECU %d",
				g.tasks[prev].Name, t.Name, t.Prio, t.ECU)
		}
		byPrio[k] = TaskID(i)
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// Clone returns a deep copy of the graph. Mutating the clone (e.g. its
// buffer sizes, as Algorithm 1 does) leaves the original untouched.
func (g *Graph) Clone() *Graph {
	return &Graph{
		tasks:   slices.Clone(g.tasks),
		ecus:    slices.Clone(g.ecus),
		edges:   slices.Clone(g.edges),
		edgeIdx: maps.Clone(g.edgeIdx),
	}
}

// Hyperperiod returns the LCM of all task periods.
func (g *Graph) Hyperperiod() timeu.Time {
	periods := make([]timeu.Time, len(g.tasks))
	for i := range g.tasks {
		periods[i] = g.tasks[i].Period
	}
	return timeu.Hyperperiod(periods)
}

// HyperperiodChecked returns the LCM of all task periods with explicit
// errors instead of panics: int64 overflow (many coprime periods) and,
// when horizon is positive, hyperperiods beyond the horizon are
// reported rather than computed wrong. Callers that need a cyclic
// window inside a simulated span (jump-ahead, auto horizons) use this
// form and fall back when it errors.
func (g *Graph) HyperperiodChecked(horizon timeu.Time) (timeu.Time, error) {
	periods := make([]timeu.Time, len(g.tasks))
	for i := range g.tasks {
		periods[i] = g.tasks[i].Period
	}
	return timeu.HyperperiodChecked(periods, horizon)
}
