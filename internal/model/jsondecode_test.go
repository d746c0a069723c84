package model

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// decodeGraphJSONReference is the decode stage ReadJSON had before the
// one-pass decoder: encoding/json's Decoder with unknown fields
// disallowed. It is the oracle decodeGraphJSON is tested against.
func decodeGraphJSONReference(r io.Reader) (graphJSON, error) {
	var in graphJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&in)
	return in, err
}

// readJSONReference is ReadJSON with the encoding/json decode stage.
func readJSONReference(r io.Reader) (*Graph, error) {
	in, err := decodeGraphJSONReference(r)
	if err != nil {
		return nil, fmt.Errorf("model: decoding graph: %w", err)
	}
	return in.graph()
}

// graphDiff describes the first difference between two graphs' ECUs,
// tasks and edges (with their buffer capacities), or returns "".
func graphDiff(a, b *Graph) string {
	if a.NumECUs() != b.NumECUs() || a.NumTasks() != b.NumTasks() || a.NumEdges() != b.NumEdges() {
		return fmt.Sprintf("shape %d/%d/%d ECUs/tasks/edges vs %d/%d/%d",
			a.NumECUs(), a.NumTasks(), a.NumEdges(), b.NumECUs(), b.NumTasks(), b.NumEdges())
	}
	for i, e := range a.ECUs() {
		if e != b.ECUs()[i] {
			return fmt.Sprintf("ECU %d: %+v vs %+v", i, e, b.ECUs()[i])
		}
	}
	for i, t := range a.Tasks() {
		if t != b.Tasks()[i] {
			return fmt.Sprintf("task %d: %+v vs %+v", i, t, b.Tasks()[i])
		}
	}
	for i, e := range a.Edges() {
		if e != b.Edges()[i] || b.Buffer(e.Src, e.Dst) != e.Cap {
			return fmt.Sprintf("edge %d: %+v vs %+v", i, e, b.Edges()[i])
		}
	}
	return ""
}

// checkMatchesReference decodes data with both decoders and fails the
// test unless they agree: both reject, or both accept with equal
// decoded files and equal graphs.
func checkMatchesReference(t *testing.T, data string) (accepted bool) {
	t.Helper()
	fast, ferr := decodeGraphJSON(data)
	ref, rerr := decodeGraphJSONReference(strings.NewReader(data))
	if (ferr == nil) != (rerr == nil) {
		t.Fatalf("decode of %q: one-pass error %v, reference error %v", data, ferr, rerr)
	}
	if ferr == nil && !reflect.DeepEqual(fast, ref) {
		t.Fatalf("decode of %q differs:\none-pass  %+v\nreference %+v", data, fast, ref)
	}
	g, gerr := ReadJSON(strings.NewReader(data))
	rg, rgerr := readJSONReference(strings.NewReader(data))
	if (gerr == nil) != (rgerr == nil) {
		t.Fatalf("ReadJSON(%q): error %v, reference error %v", data, gerr, rgerr)
	}
	if gerr == nil {
		if d := graphDiff(g, rg); d != "" {
			t.Fatalf("ReadJSON(%q) differs from the reference: %s", data, d)
		}
	}
	return gerr == nil
}

// FuzzReadJSONMatchesReference is the differential fuzz of the
// one-pass decoder against encoding/json. Its seeds are the checked-in
// corpus in testdata/fuzz: one file per decodeCorners entry (corner_*)
// plus the Fig. 2 graph and the small fleet golden of disparity-gen
// (graph_*).
func FuzzReadJSONMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data string) {
		checkMatchesReference(t, data)
	})
}

const (
	okTask   = `{"name":"a","period":"5ms"}`
	twoTasks = `{"ecus":[{"name":"e"}],"tasks":[` + okTask + `,{"name":"b","wcet":"1ms","period":"5ms","ecu":"e"}],`
)

// decodeCorners pins each corner of the accepted-input contract:
// whether ReadJSON accepts the input, and (via checkMatchesReference)
// that encoding/json decides and decodes the same.
var decodeCorners = []struct {
	name   string
	in     string
	accept bool
}{
	{"minimal", `{"tasks":[` + okTask + `],"edges":[]}`, true},
	{"upper-case key", `{"TASKS":[` + okTask + `]}`, true},
	{"mixed-case field", `{"tasks":[{"Name":"a","PERIOD":"5ms","Prio":3}]}`, true},
	{"long s folds to S", "{\"ta\u017fks\":[" + okTask + "]}", true},
	{"Kelvin sign folds to K", "{\"tas\u212as\":[" + okTask + "]}", true},
	{"escaped key", `{"t\u0061sks":[` + okTask + `],"edges":[]}`, true},
	{"escaped long s", `{"ta\u017fks":[` + okTask + `]}`, true},
	{"dotted I does not fold", "{\"tasks\":[{\"name\":\"a\",\"per\u0130od\":\"5ms\"}]}", false},
	{"dotless i does not fold", "{\"tasks\":[{\"name\":\"a\",\"per\u0131od\":\"5ms\"}]}", false},
	{"unknown top-level field", `{"tasks":[],"edges":[],"extra":1}`, false},
	{"unknown task field", `{"tasks":[{"name":"a","period":"5ms","colour":"red"}]}`, false},
	{"key longer than any field", `{"tasks":[{"name":"a","period":"5ms","max_period_x":"6ms"}]}`, false},
	{"duplicate key merges element-wise",
		`{"tasks":[{"name":"a","period":"5ms"},{"name":"b","period":"5ms"}],"tasks":[{"wcet":"0ms"}]}`, true},
	{"duplicate key re-exposes spare capacity",
		`{"tasks":[{"name":"a","period":"5ms"},{"name":"b","period":"5ms"},{"name":"c","period":"5ms"}],` +
			`"tasks":[{}],"tasks":[{},{}]}`, true},
	{"duplicate key grows past capacity",
		`{"tasks":[{"name":"a","period":"5ms"}],"tasks":[{},{"name":"b"},{"name":"c"},{"name":"d"}]}`, false},
	{"duplicate key after empty array",
		`{"tasks":[{"name":"a","period":"5ms"},{"name":"b","period":"5ms"}],"tasks":[],"tasks":[{"name":"c"}]}`, false},
	{"duplicate field in element", `{"tasks":[{"name":"a","name":"b","period":"5ms"}]}`, true},
	{"null string keeps value", `{"tasks":[{"name":"a","period":"5ms","period":null}]}`, true},
	{"null int keeps value",
		`{"ecus":[{"name":"e"}],"tasks":[{"name":"a","wcet":"1ms","period":"5ms","ecu":"e","prio":4,"prio":null}]}`, true},
	{"null slice clears", `{"tasks":[` + okTask + `],"tasks":null}`, true},
	{"null element keeps element", `{"ecus":[null],"tasks":[` + okTask + `]}`, true},
	{"null element in repeat", `{"tasks":[` + okTask + `],"tasks":[null]}`, true},
	{"top-level null", `null`, true},
	{"top-level null then garbage", `null}}`, true},
	{"truncated null", `nul`, false},
	{"bytes after the value", `{"tasks":[],"edges":[]} trailing garbage {`, true},
	{"leading whitespace", " \t\r\n{\"tasks\":[]}", true},
	{"empty input", ``, false},
	{"whitespace only", " \n", false},
	{"top-level array", `[]`, false},
	{"top-level string", `"tasks"`, false},
	{"top-level number", `1`, false},
	{"top-level true", `true`, false},
	{"byte order mark", "\ufeff{\"tasks\":[]}", false},
	{"trailing comma", `{"tasks":[` + okTask + `,]}`, false},
	{"trailing comma in object", `{"tasks":[],}`, false},
	{"missing colon", `{"tasks" []}`, false},
	{"unterminated", `{"tasks":[` + okTask, false},
	{"control character in string", "{\"tasks\":[{\"name\":\"a\x01\",\"period\":\"5ms\"}]}", false},
	{"tab in string", "{\"tasks\":[{\"name\":\"a\tb\",\"period\":\"5ms\"}]}", false},
	{"DEL in string", "{\"tasks\":[{\"name\":\"a\x7f\",\"period\":\"5ms\"}]}", true},
	{"escapes", `{"tasks":[{"name":"a\"\\\/\b\f\n\r\tz","period":"5ms"}]}`, true},
	{"bad escape", `{"tasks":[{"name":"a\'","period":"5ms"}]}`, false},
	{"short unicode escape", `{"tasks":[{"name":"\u12","period":"5ms"}]}`, false},
	{"unicode escape", `{"tasks":[{"name":"\u00e9\u4e2d","period":"5ms"}]}`, true},
	{"surrogate pair", `{"tasks":[{"name":"\ud83d\ude00","period":"5ms"}]}`, true},
	{"lone high surrogate", `{"tasks":[{"name":"\ud800x","period":"5ms"}]}`, true},
	{"lone low surrogate", `{"tasks":[{"name":"\udc00","period":"5ms"}]}`, true},
	{"high surrogate then escape", `{"tasks":[{"name":"\ud800\u0041","period":"5ms"}]}`, true},
	{"two high surrogates then low", `{"tasks":[{"name":"\ud800\ud800\udc00","period":"5ms"}]}`, true},
	{"invalid UTF-8", "{\"tasks\":[{\"name\":\"a\xffb\",\"period\":\"5ms\"}]}", true},
	{"UTF-8 encoded surrogate", "{\"tasks\":[{\"name\":\"\xed\xa0\x80\",\"period\":\"5ms\"}]}", true},
	{"invalid UTF-8 in key", "{\"tasks\":[{\"name\xff\":\"a\",\"period\":\"5ms\"}]}", false},
	{"valid UTF-8", `{"tasks":[{"name":"τ₁→✓","period":"5ms"}]}`, true},
	{"int minus zero", `{"ecus":[{"name":"e"}],"tasks":[{"name":"a","wcet":"1ms","period":"5ms","ecu":"e","prio":-0}]}`, true},
	{"int max", `{"tasks":[{"name":"a","period":"5ms","prio":9223372036854775807}]}`, true},
	{"int min", `{"tasks":[{"name":"a","period":"5ms","prio":-9223372036854775808}]}`, true},
	{"int overflow", `{"tasks":[{"name":"a","period":"5ms","prio":9223372036854775808}]}`, false},
	{"int underflow", `{"tasks":[{"name":"a","period":"5ms","prio":-9223372036854775809}]}`, false},
	{"int with fraction", `{"tasks":[{"name":"a","period":"5ms","prio":1.0}]}`, false},
	{"int with exponent", `{"tasks":[{"name":"a","period":"5ms","prio":1e0}]}`, false},
	{"int with leading zero", `{"tasks":[{"name":"a","period":"5ms","prio":01}]}`, false},
	{"int minus only", `{"tasks":[{"name":"a","period":"5ms","prio":-}]}`, false},
	{"int as string", `{"tasks":[{"name":"a","period":"5ms","prio":"1"}]}`, false},
	{"string as number", `{"tasks":[{"name":1,"period":"5ms"}]}`, false},
	{"bool value", `{"tasks":[{"name":true,"period":"5ms"}]}`, false},
	{"object for array", `{"tasks":{}}`, false},
	{"array for element", `{"tasks":[[]]}`, false},
	{"cap", twoTasks + `"edges":[{"src":"a","dst":"b","cap":3}]}`, true},
	{"cap zero means one", twoTasks + `"edges":[{"src":"a","dst":"b","cap":0}]}`, true},
	{"negative cap", twoTasks + `"edges":[{"src":"a","dst":"b","cap":-2}]}`, false},
}

func TestDecodeCorners(t *testing.T) {
	for _, c := range decodeCorners {
		t.Run(c.name, func(t *testing.T) {
			if got := checkMatchesReference(t, c.in); got != c.accept {
				t.Fatalf("ReadJSON(%q) accepted = %v, want %v", c.in, got, c.accept)
			}
		})
	}
}

// TestFieldTablesMatchTags keeps the decoder's field tables in step
// with the json tags of the structs WriteJSON encodes.
func TestFieldTablesMatchTags(t *testing.T) {
	for _, c := range []struct {
		v      any
		fields []string
	}{{graphJSON{}, graphFields}, {ecuJSON{}, ecuFields}, {taskJSON{}, taskFields}, {edgeJSON{}, edgeFields}} {
		typ := reflect.TypeOf(c.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, strings.ToUpper(name))
		}
		if !reflect.DeepEqual(tags, c.fields) {
			t.Errorf("%s: json tags %q, decoder fields %q", typ.Name(), tags, c.fields)
		}
	}
}

// TestReadJSONAllocs keeps ReadJSON's allocation count flat in the
// graph size: no allocation per key or per plain string value.
func TestReadJSONAllocs(t *testing.T) {
	var buf strings.Builder
	if err := Fig2Graph().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	src := buf.String()
	if _, err := decodeGraphJSON(src); err != nil {
		t.Fatal(err)
	}
	// The three slices grow by appends: 6 tasks, 6 edges, 1 ECU.
	if n := testing.AllocsPerRun(20, func() { _, _ = decodeGraphJSON(src) }); n > 9 {
		t.Errorf("decodeGraphJSON of the Fig. 2 graph: %v allocations, want ≤ 9", n)
	}
}
