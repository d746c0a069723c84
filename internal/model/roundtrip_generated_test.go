package model_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/can"
	"repro/internal/model"
	"repro/internal/randgraph"
	"repro/internal/timeu"
	"repro/internal/waters"
)

// TestReadJSONMatchesReferenceGenerated writes ~200 generated graphs
// (GNM, layered, automotive and fleet topologies with WATERS
// parameters, some split over a CAN bus) and reads each back with the
// one-pass decoder and with the encoding/json reference: both must
// accept and build graphs equal to each other and to the original.
// Random LET semantics, offsets, deadlines, sporadic periods and
// buffer capacities exercise every field of the schema.
func TestReadJSONMatchesReferenceGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	bus := can.Bus{Rate: can.Baud500k, Format: can.Standard, Payload: 8}
	var graphs []*model.Graph
	for len(graphs) < 200 {
		var g *model.Graph
		var err error
		switch len(graphs) % 4 {
		case 0:
			g, err = randgraph.GNM(5+rng.Intn(40), 60, randgraph.DefaultConfig(), rng)
		case 1:
			g, err = randgraph.Layered([]int{1 + rng.Intn(4), 1 + rng.Intn(5), 1 + rng.Intn(4)}, 2, randgraph.DefaultConfig(), rng)
		case 2:
			g, _, err = randgraph.Automotive(randgraph.AutomotiveConfig{
				Sensors: 2 + rng.Intn(4), ProcDepth: 1 + rng.Intn(3), TailLen: rng.Intn(3), ZoneECUs: rng.Intn(2) == 0,
			})
		default:
			cfg := randgraph.FleetConfig{Zones: 1 + rng.Intn(2), ECUsPerZone: 1 + rng.Intn(2), PipesPerECU: 1 + rng.Intn(3), ProcDepth: 1 + rng.Intn(3), TailLen: rng.Intn(3)}
			if len(graphs) == 3 {
				cfg = randgraph.DefaultFleet() // one at full scale, ~2100 tasks
			}
			g, _, err = randgraph.Fleet(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		waters.Populate(g, rng)
		if rng.Intn(3) == 0 {
			if _, _, err := bus.Split(g, "can0"); err != nil {
				t.Fatal(err)
			}
		}
		varyFields(g, rng)
		if err := g.Validate(); err != nil {
			t.Fatalf("graph %d: generated graph invalid: %v", len(graphs), err)
		}
		graphs = append(graphs, g)
	}
	for i, g := range graphs {
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := model.ReadJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("graph %d: ReadJSON: %v", i, err)
		}
		ref, err := model.ReadJSONReference(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("graph %d: reference: %v", i, err)
		}
		if d := model.GraphDiff(got, ref); d != "" {
			t.Fatalf("graph %d: one-pass vs reference: %s", i, d)
		}
		if d := model.GraphDiff(got, g); d != "" {
			t.Fatalf("graph %d: read back vs written: %s", i, d)
		}
	}
}

// varyFields sets the optional task and edge fields at random while
// keeping the graph valid.
func varyFields(g *model.Graph, rng *rand.Rand) {
	for i := range g.Tasks() {
		t := g.Task(model.TaskID(i))
		if rng.Intn(3) == 0 {
			t.Sem = model.LET
		}
		if rng.Intn(2) == 0 {
			t.Offset = timeu.Time(rng.Int63n(int64(t.Period)))
		}
		if rng.Intn(4) == 0 {
			t.Deadline = t.WCET + timeu.Time(rng.Int63n(int64(t.Period-t.WCET)+1))
		}
		if rng.Intn(5) == 0 {
			t.MaxPeriod = t.Period + timeu.Time(rng.Int63n(int64(t.Period)))
		}
	}
	for _, e := range g.Edges() {
		if rng.Intn(4) == 0 {
			if err := g.SetBuffer(e.Src, e.Dst, 1+rng.Intn(4)); err != nil {
				panic(err)
			}
		}
	}
}
