package model

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strings"

	"repro/internal/timeu"
)

// graphJSON is the on-disk representation of a Graph. Times are written as
// strings with explicit units ("5ms", "4.75us") so that files are readable
// and unit mistakes are impossible.
type graphJSON struct {
	ECUs  []ecuJSON  `json:"ecus,omitempty"`
	Tasks []taskJSON `json:"tasks"`
	Edges []edgeJSON `json:"edges"`
}

type ecuJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

type taskJSON struct {
	Name      string `json:"name"`
	WCET      string `json:"wcet"`
	BCET      string `json:"bcet"`
	Period    string `json:"period"`
	MaxPeriod string `json:"max_period,omitempty"`
	Deadline  string `json:"deadline,omitempty"`
	Offset    string `json:"offset,omitempty"`
	Prio      int    `json:"prio"`
	ECU       string `json:"ecu,omitempty"`
	Sem       string `json:"sem,omitempty"`
}

type edgeJSON struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
	Cap int    `json:"cap,omitempty"`
}

// WriteJSON serializes the graph.
func (g *Graph) WriteJSON(w io.Writer) error {
	var out graphJSON
	for _, e := range g.ecus {
		out.ECUs = append(out.ECUs, ecuJSON{Name: e.Name, Kind: e.Kind.String()})
	}
	for i := range g.tasks {
		t := &g.tasks[i]
		tj := taskJSON{
			Name:   t.Name,
			WCET:   t.WCET.String(),
			BCET:   t.BCET.String(),
			Period: t.Period.String(),
			Prio:   t.Prio,
		}
		if t.MaxPeriod != 0 {
			tj.MaxPeriod = t.MaxPeriod.String()
		}
		if t.Deadline != 0 {
			tj.Deadline = t.Deadline.String()
		}
		if t.Offset != 0 {
			tj.Offset = t.Offset.String()
		}
		if t.ECU != NoECU {
			tj.ECU = g.ecus[t.ECU].Name
		}
		if t.Sem != Implicit {
			tj.Sem = t.Sem.String()
		}
		out.Tasks = append(out.Tasks, tj)
	}
	for _, e := range g.edges {
		ej := edgeJSON{Src: g.tasks[e.Src].Name, Dst: g.tasks[e.Dst].Name}
		if e.Cap != 1 {
			ej.Cap = e.Cap
		}
		out.Edges = append(out.Edges, ej)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON deserializes a graph written by WriteJSON and validates it.
// It reads r to the end and decodes the first JSON value with the
// one-pass decoder of jsondecode.go, which accepts exactly what
// encoding/json's Decoder (unknown fields disallowed) accepts for this
// schema; DESIGN.md lists the contract.
func ReadJSON(r io.Reader) (*Graph, error) {
	src, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("model: reading graph: %w", err)
	}
	in, err := decodeGraphJSON(src)
	if err != nil {
		return nil, fmt.Errorf("model: decoding graph: %w", err)
	}
	return in.graph()
}

// readAll reads r to the end into one string, presized from the
// reader's Len (bytes.Reader, strings.Reader, bytes.Buffer) or Stat
// (*os.File) so the buffer is not grown by doubling.
func readAll(r io.Reader) (string, error) {
	var b strings.Builder
	switch v := r.(type) {
	case interface{ Len() int }:
		b.Grow(v.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() && int64(int(fi.Size())) == fi.Size() {
			b.Grow(int(fi.Size()))
		}
	}
	_, err := io.Copy(&b, r)
	return b.String(), err
}

// graph builds and validates the graph a decoded file describes.
func (in *graphJSON) graph() (*Graph, error) {
	g := &Graph{
		tasks:   make([]Task, 0, len(in.Tasks)),
		ecus:    make([]ECU, 0, len(in.ECUs)),
		edges:   make([]Edge, 0, len(in.Edges)),
		edgeIdx: make(map[[2]TaskID]int, len(in.Edges)),
	}
	in.copyNames()
	ecuByName := make(map[string]ECUID, len(in.ECUs))
	for _, e := range in.ECUs {
		var kind ECUKind
		switch e.Kind {
		case "compute", "":
			kind = Compute
		case "bus":
			kind = Bus
		default:
			return nil, fmt.Errorf("model: ECU %q has unknown kind %q", e.Name, e.Kind)
		}
		if _, dup := ecuByName[e.Name]; dup {
			return nil, fmt.Errorf("model: duplicate ECU name %q", e.Name)
		}
		ecuByName[e.Name] = g.AddECU(e.Name, kind)
	}
	taskByName := make(map[string]TaskID, len(in.Tasks))
	parse := func(what, name, s string, def timeu.Time) (timeu.Time, error) {
		if s == "" {
			return def, nil
		}
		d, err := timeu.Parse(s)
		if err != nil {
			return 0, fmt.Errorf("model: task %q %s: %w", name, what, err)
		}
		return d, nil
	}
	for _, t := range in.Tasks {
		if _, dup := taskByName[t.Name]; dup {
			return nil, fmt.Errorf("model: duplicate task name %q", t.Name)
		}
		wcet, err := parse("wcet", t.Name, t.WCET, 0)
		if err != nil {
			return nil, err
		}
		bcet, err := parse("bcet", t.Name, t.BCET, 0)
		if err != nil {
			return nil, err
		}
		period, err := parse("period", t.Name, t.Period, 0)
		if err != nil {
			return nil, err
		}
		maxPeriod, err := parse("max_period", t.Name, t.MaxPeriod, 0)
		if err != nil {
			return nil, err
		}
		deadline, err := parse("deadline", t.Name, t.Deadline, 0)
		if err != nil {
			return nil, err
		}
		offset, err := parse("offset", t.Name, t.Offset, 0)
		if err != nil {
			return nil, err
		}
		ecu := NoECU
		if t.ECU != "" {
			id, ok := ecuByName[t.ECU]
			if !ok {
				return nil, fmt.Errorf("model: task %q references unknown ECU %q", t.Name, t.ECU)
			}
			ecu = id
		}
		var sem Semantics
		switch t.Sem {
		case "", "implicit":
			sem = Implicit
		case "let":
			sem = LET
		default:
			return nil, fmt.Errorf("model: task %q has unknown semantics %q", t.Name, t.Sem)
		}
		taskByName[t.Name] = g.AddTask(Task{
			Name: t.Name, WCET: wcet, BCET: bcet, Period: period,
			MaxPeriod: maxPeriod, Deadline: deadline, Offset: offset,
			Prio: t.Prio, ECU: ecu, Sem: sem,
		})
	}
	for _, e := range in.Edges {
		src, ok := taskByName[e.Src]
		if !ok {
			return nil, fmt.Errorf("model: edge references unknown task %q", e.Src)
		}
		dst, ok := taskByName[e.Dst]
		if !ok {
			return nil, fmt.Errorf("model: edge references unknown task %q", e.Dst)
		}
		capacity := e.Cap
		if capacity == 0 {
			capacity = 1
		}
		if err := g.AddBufferedEdge(src, dst, capacity); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// copyNames moves every ECU and task name into one shared allocation.
// The decoder returns plain strings as substrings of the input, so
// without this the graph would keep the whole input text alive.
func (in *graphJSON) copyNames() {
	n := 0
	for i := range in.ECUs {
		n += len(in.ECUs[i].Name)
	}
	for i := range in.Tasks {
		n += len(in.Tasks[i].Name)
	}
	var b strings.Builder
	b.Grow(n)
	for i := range in.ECUs {
		b.WriteString(in.ECUs[i].Name)
	}
	for i := range in.Tasks {
		b.WriteString(in.Tasks[i].Name)
	}
	all := b.String()
	take := func(name *string) { *name, all = all[:len(*name)], all[len(*name):] }
	for i := range in.ECUs {
		take(&in.ECUs[i].Name)
	}
	for i := range in.Tasks {
		take(&in.Tasks[i].Name)
	}
}

// WriteDOT renders the graph in Graphviz DOT format: one cluster per ECU,
// vertex labels carrying (W, B, T) as in the paper's figures, and edge
// labels carrying non-default buffer capacities.
func (g *Graph) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph causeeffect {\n  rankdir=LR;\n  node [shape=ellipse];\n")
	byECU := make(map[ECUID][]TaskID)
	for i := range g.tasks {
		byECU[g.tasks[i].ECU] = append(byECU[g.tasks[i].ECU], TaskID(i))
	}
	var ecuIDs []ECUID
	for id := range byECU {
		ecuIDs = append(ecuIDs, id)
	}
	sort.Slice(ecuIDs, func(i, j int) bool { return ecuIDs[i] < ecuIDs[j] })
	label := func(t *Task) string {
		return fmt.Sprintf("%s\\n(%s, %s, %s)", t.Name, t.WCET, t.BCET, t.Period)
	}
	for _, ecu := range ecuIDs {
		if ecu == NoECU {
			for _, id := range byECU[ecu] {
				t := g.Task(id)
				fmt.Fprintf(&b, "  %q [label=%q, style=dashed];\n", t.Name, label(t))
			}
			continue
		}
		e := g.ECU(ecu)
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=%q;\n", ecu, fmt.Sprintf("%s (%s)", e.Name, e.Kind))
		for _, id := range byECU[ecu] {
			t := g.Task(id)
			fmt.Fprintf(&b, "    %q [label=%q];\n", t.Name, label(t))
		}
		b.WriteString("  }\n")
	}
	for _, e := range g.edges {
		if e.Cap != 1 {
			fmt.Fprintf(&b, "  %q -> %q [label=\"cap=%d\"];\n", g.tasks[e.Src].Name, g.tasks[e.Dst].Name, e.Cap)
		} else {
			fmt.Fprintf(&b, "  %q -> %q;\n", g.tasks[e.Src].Name, g.tasks[e.Dst].Name)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
