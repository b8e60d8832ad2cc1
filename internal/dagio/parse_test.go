package dagio

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"resched/internal/dag"
	"resched/internal/daggen"
)

// sameGraph reports whether a and b have the same tasks (names
// included, alphas bit for bit) and the same adjacency lists in the
// same order.
func sameGraph(a, b *dag.Graph) bool {
	if a.NumTasks() != b.NumTasks() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for i := 0; i < a.NumTasks(); i++ {
		ta, tb := a.Task(i), b.Task(i)
		if ta.Name != tb.Name || ta.Seq != tb.Seq || math.Float64bits(ta.Alpha) != math.Float64bits(tb.Alpha) {
			return false
		}
		if !equalInts(a.Successors(i), b.Successors(i)) || !equalInts(a.Predecessors(i), b.Predecessors(i)) {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstOracle requires Parse and Read to agree with the
// reflective reader on doc: the same verdict, the same graph when it
// accepts, and the same message when the document decodes but fails a
// check. Every rejection carries the dagio: prefix.
func checkAgainstOracle(t *testing.T, doc []byte) {
	t.Helper()
	want, decodeErr, wantErr := oracleRead(bytes.NewReader(doc))
	for _, read := range []struct {
		name string
		fn   func([]byte) (*dag.Graph, error)
	}{
		{"Parse", Parse},
		{"Read", func(b []byte) (*dag.Graph, error) { return Read(bytes.NewReader(b)) }},
	} {
		got, err := read.fn(doc)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("%s(%q): err = %v, oracle err = %v", read.name, doc, err, wantErr)
		case err != nil && !strings.HasPrefix(err.Error(), "dagio: "):
			t.Fatalf("%s(%q): error %q lacks the dagio: prefix", read.name, doc, err)
		case err != nil && !decodeErr && err.Error() != wantErr.Error():
			t.Fatalf("%s(%q): error %q, oracle %q", read.name, doc, err, wantErr)
		case err == nil && !sameGraph(got, want):
			t.Fatalf("%s(%q): graph differs from the oracle's", read.name, doc)
		}
	}
}

// cornerDocs are the encoding/json behaviours the scanner reproduces,
// each with the verdict the oracle gives (true: accepted). They seed
// FuzzRead and are checked against the oracle in TestParseCorners.
var cornerDocs = []struct {
	doc    string
	accept bool
}{
	// Keys match under Unicode case folding, after unquoting.
	{`{"TASKS":[{"Seq":1,"ALPHA":0.5,"Name":"a"}],"Edges":null}`, true},
	{`{"taſks":[{"ſeq":1,"alpha":0}]}`, true},            // ſ folds to s
	{"{\"tas\u212as\":[{\"seq\":1,\"alpha\":0}]}", true}, // Kelvin sign folds to k
	{`{"tasks":[{"seq":1,"alpha":0}]}`, true},
	{`{"tasks\u0000":[{"seq":1,"alpha":0}]}`, false},
	// A repeated key decodes into what the earlier one left.
	{`{"tasks":[{"seq":1,"alpha":0.5}],"tasks":[{"seq":2}]}`, true},
	{`{"tasks":[{"seq":-1,"alpha":0}],"tasks":[{"seq":1}]}`, true},
	{`{"tasks":[{"name":"a","seq":1,"alpha":0.5},{"seq":3,"alpha":0.2}],"tasks":[{"seq":2}],"tasks":[null,null]}`, true},
	{`{"tasks":[{"seq":1,"alpha":0.5}],"tasks":null,"tasks":[null]}`, true},
	{`{"tasks":[{"seq":1,"alpha":0.5}],"tasks":[],"tasks":[null]}`, true},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[0,1]],"edges":[null]}`, true},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[1,0]],"edges":[[null]]}`, true},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[0,1]],"edges":[[null,null]]}`, true},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[0,1],[1,0]],"edges":[[0,1]]}`, true},
	// null at every slot.
	{`null`, false},
	{`null x`, false},
	{`nullx`, false},
	{`{"tasks":null}`, false},
	{`{"tasks":[null]}`, true},
	{`{"tasks":[{"name":null,"seq":null,"alpha":null}],"edges":null}`, true},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[null]}`, false},
	// Edge arrays of 0, 1 and 3 elements: zero-filled, extras skipped
	// but syntax-checked.
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[]]}`, false},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[1]]}`, true},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[0,1,2]]}`, true},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[0,1,{"a":[1,{"b":null}]},"x",true,false,null,-1.5e3]]}`, true},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[0,1,[}]]}`, false},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[0,1,"\q"]]}`, false},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[0,1,01]]}`, false},
	// Numbers: integers only for seq and endpoints, any JSON number for
	// alpha.
	{`{"tasks":[{"seq":1e3,"alpha":0}]}`, false},
	{`{"tasks":[{"seq":3600.0,"alpha":0}]}`, false},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[0,1e0]]}`, false},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[0.0,1]]}`, false},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[-0,1]]}`, true},
	{`{"tasks":[{"seq":-0,"alpha":-0}]}`, true},
	{`{"tasks":[{"seq":1,"alpha":1E-400}]}`, true},
	{`{"tasks":[{"seq":1,"alpha":1e400}]}`, false},
	{`{"tasks":[{"seq":1,"alpha":1.00000000000000001}]}`, true},
	{`{"tasks":[{"seq":1,"alpha":5e-1}]}`, true},
	{`{"tasks":[{"seq":9223372036854775807,"alpha":0}]}`, true},
	{`{"tasks":[{"seq":9223372036854775808,"alpha":0}]}`, false},
	{`{"tasks":[{"seq":-9223372036854775808,"alpha":0}]}`, false},
	{`{"tasks":[{"seq":01,"alpha":0}]}`, false},
	{`{"tasks":[{"seq":1,"alpha":.5}]}`, false},
	{`{"tasks":[{"seq":1,"alpha":0.}]}`, false},
	{`{"tasks":[{"seq":1,"alpha":1e}]}`, false},
	{`{"tasks":[{"seq":-,"alpha":0}]}`, false},
	{`{"tasks":[{"seq":"1","alpha":0}]}`, false},
	{`{"tasks":[{"seq":true,"alpha":0}]}`, false},
	// Escapes and invalid UTF-8 in names.
	{`{"tasks":[{"name":"a<b\ud83d\ude00\ud800x\udc00\u0000\"\\\/\b\f\n\r\t","seq":1,"alpha":0}]}`, true},
	{`{"tasks":[{"name":"\ud800A\ud800\ud800\udc00\udc00\ud83d","seq":1,"alpha":0}]}`, true},
	{"{\"tasks\":[{\"name\":\"\xff\xfe\xed\xa0\x80\xe2\x82\",\"seq\":1,\"alpha\":0}]}", true},
	{"{\"tasks\":[{\"name\":\"tab\there\",\"seq\":1,\"alpha\":0}]}", false},
	{`{"tasks":[{"name":"\u12","seq":1,"alpha":0}]}`, false},
	{`{"tasks":[{"name":"\x41","seq":1,"alpha":0}]}`, false},
	{`{"tasks":[{"name":1,"seq":1,"alpha":0}]}`, false},
	// Unknown fields.
	{`{"tasks":[{"seq":1,"alpha":0,"bogus":1}]}`, false},
	{`{"bogus":1,"tasks":[{"seq":1,"alpha":0}]}`, false},
	{`{"tasks":[{"seq":1,"alpha":0}],"x":null}`, false},
	// Bytes after the first value are ignored.
	{`{"tasks":[{"seq":1,"alpha":0}]} garbage`, true},
	{`{"tasks":[{"seq":1,"alpha":0}]}{`, true},
	{" \t\r\n{ \"tasks\" : [ { \"seq\" : 1 , \"alpha\" : 0 } ] , \"edges\" : [ ] } ", true},
	// Syntax and shape.
	{``, false},
	{`   `, false},
	{`[]`, false},
	{`"tasks"`, false},
	{`1`, false},
	{`true`, false},
	{"\ufeff{\"tasks\":[{\"seq\":1,\"alpha\":0}]}", false},
	{`{"tasks":[{"seq":1,"alpha":0},]}`, false},
	{`{"tasks":[{"seq":1,"alpha":0}],}`, false},
	{`{"tasks":[{"seq":1,"alpha":0}]`, false},
	{`{"tasks":[{"seq":1 "alpha":0}]}`, false},
	{`{"tasks":{"seq":1,"alpha":0}}`, false},
	{`{"tasks":[[1,0]]}`, false},
	{`{tasks:[]}`, false},
	{`{"tasks"}`, false},
	{`{}`, false},
	// The nesting limit: the edge is at depth 3, so 9997 more levels
	// are the deepest a skipped element may reach.
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[0,1,` + strings.Repeat("[", 9997) + strings.Repeat("]", 9997) + `]]}`, true},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[0,1,` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `]]}`, false},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[0,1,` + strings.Repeat(`{"a":`, 9997) + "0" + strings.Repeat("}", 9997) + `]]}`, true},
	{`{"tasks":[{"seq":1,"alpha":0},{"seq":1,"alpha":0}],"edges":[[0,1,` + strings.Repeat(`{"a":`, 9998) + "0" + strings.Repeat("}", 9998) + `]]}`, false},
}

func TestParseCorners(t *testing.T) {
	for _, c := range cornerDocs {
		if _, _, err := oracleRead(strings.NewReader(c.doc)); (err == nil) != c.accept {
			t.Fatalf("oracle on %.80q: err = %v, want accept = %v", c.doc, err, c.accept)
		}
		checkAgainstOracle(t, []byte(c.doc))
	}
}

// generatedDocs renders a few generated DAGs, indented and compact.
func generatedDocs(t testing.TB) [][]byte {
	var docs [][]byte
	rng := rand.New(rand.NewSource(11))
	spec := daggen.Default()
	for _, n := range []int{1, 10, 25} {
		spec.N = n
		var indented, compact bytes.Buffer
		if err := Write(&indented, daggen.MustGenerate(spec, rng)); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&compact, indented.Bytes()); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, indented.Bytes(), compact.Bytes())
	}
	return docs
}

// FuzzRead holds Parse and Read to the reflective reader: the same
// verdict on every input, the same graph (names included) on every
// accepted one, and the same message on every input that decodes.
func FuzzRead(f *testing.F) {
	for _, c := range cornerDocs {
		// The nesting-limit documents stay in TestParseCorners: the
		// fuzzer's mutations of 60 kB inputs are slow and find nothing
		// the small seeds do not.
		if len(c.doc) < 4096 {
			f.Add([]byte(c.doc))
		}
	}
	for _, doc := range generatedDocs(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkAgainstOracle(t, doc)
	})
}

// TestParseAllocations pins that parsing allocates only the graph: the
// same count as building it by hand, whatever the number of tasks and
// edges, so nothing is allocated per task or per edge beyond dag's
// arena blocks.
func TestParseAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	spec := daggen.Default()
	for _, n := range []int{10, 100} {
		spec.N = n
		g := daggen.MustGenerate(spec, rng)
		var buf, compact bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&compact, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		doc := compact.Bytes()
		build := testing.AllocsPerRun(50, func() {
			h := dag.New(g.NumTasks())
			built = h
			for i := 0; i < g.NumTasks(); i++ {
				h.AddTask(g.Task(i))
			}
			for i := 0; i < g.NumTasks(); i++ {
				for _, s := range g.Successors(i) {
					h.MustAddEdge(i, s)
				}
			}
			if err := h.Validate(); err != nil {
				t.Fatal(err)
			}
		})
		parse := testing.AllocsPerRun(50, func() {
			if _, err := Parse(doc); err != nil {
				t.Fatal(err)
			}
		})
		rd := bytes.NewReader(doc)
		read := testing.AllocsPerRun(50, func() {
			rd.Reset(doc)
			if _, err := Read(rd); err != nil {
				t.Fatal(err)
			}
		})
		if parse != build || read != build {
			t.Errorf("n=%d: Parse allocates %v and Read %v times, building the graph %v", n, parse, read, build)
		}
	}
}

// built keeps TestParseAllocations' hand-built graph on the heap, as a
// parsed graph is.
var built *dag.Graph

// writeGraphs are hand-built graphs for the Write oracle: names that
// need escaping, a graph with no edges, an empty graph, and alphas in
// exponent form.
func writeGraphs() []*dag.Graph {
	var gs []*dag.Graph
	names := []string{"", "a<b>&c", "line\u2028para\u2029", "bad\xff\xfeutf8", "ctl\x00\x01\b\f\n\r\t\x1f\x7f",
		`quote"back\slash/`, "ünïcödé 😀", "\xed\xa0\x80", "é\xe2\x82"}
	alphas := []float64{0, 1, 0.5, 1e-6, 9.99e-7, 1e-7, 1.5e-10, 5e-324, math.Copysign(0, -1), 0.1, 1.0 / 3}
	g := dag.New(len(names))
	for i, name := range names {
		g.AddTask(dag.Task{Name: name, Seq: int64(i) * 977, Alpha: alphas[i%len(alphas)]})
	}
	gs = append(gs, g)
	h := dag.New(len(alphas))
	for i, a := range alphas {
		h.AddTask(dag.Task{Seq: math.MaxInt64 - int64(i), Alpha: a})
	}
	for i := 1; i < len(alphas); i++ {
		h.MustAddEdge(0, i)
		h.MustAddEdge(i-1, i)
	}
	gs = append(gs, h, dag.New(0))
	rng := rand.New(rand.NewSource(2))
	spec := daggen.Default()
	for _, n := range []int{1, 10, 25, 60} {
		spec.N = n
		gs = append(gs, daggen.MustGenerate(spec, rng))
	}
	return gs
}

func checkWrite(t *testing.T, g *dag.Graph) {
	t.Helper()
	var got, want bytes.Buffer
	err := Write(&got, g)
	wantErr := oracleWrite(&want, g)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("Write err = %v, oracle err = %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Write differs from the oracle:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
	if err != nil && got.Len() != 0 {
		t.Fatalf("failed Write wrote %d bytes", got.Len())
	}
}

// TestWriteMatchesOracle requires Write's bytes to be encoding/json's,
// indentation and trailing newline included.
func TestWriteMatchesOracle(t *testing.T) {
	for _, g := range writeGraphs() {
		checkWrite(t, g)
	}
	nan := dag.New(1)
	nan.AddTask(dag.Task{Alpha: math.NaN()})
	checkWrite(t, nan)
}

// FuzzWrite drives the Write oracle with arbitrary names, parameters
// and edges: a task per name (split on '|'), alpha from its bits, and
// edges from byte pairs.
func FuzzWrite(f *testing.F) {
	f.Add("a<b>&c|line |\xff", uint64(0x3eb0c6f7a0b5ed8d), int64(3600), []byte{0, 1, 1, 2})
	f.Add("", uint64(0), int64(0), []byte{})
	f.Add("x|y", math.Float64bits(1e-7), int64(-1), []byte{1, 0})
	f.Fuzz(func(t *testing.T, names string, alphaBits uint64, seq int64, edges []byte) {
		parts := strings.Split(names, "|")
		if len(parts) > 64 {
			parts = parts[:64]
		}
		alpha := math.Float64frombits(alphaBits)
		if !(alpha >= 0 && alpha <= 1) {
			alpha = math.Abs(math.Mod(alpha, 1))
			if math.IsNaN(alpha) {
				alpha = 0
			}
		}
		if seq < 0 {
			seq = -(seq + 1)
		}
		g := dag.New(len(parts))
		for i, name := range parts {
			g.AddTask(dag.Task{Name: name, Seq: seq >> (i % 64), Alpha: alpha / float64(i+1)})
		}
		for i := 0; i+1 < len(edges); i += 2 {
			from, to := int(edges[i])%len(parts), int(edges[i+1])%len(parts)
			if from < to {
				g.MustAddEdge(from, to)
			}
		}
		checkWrite(t, g)
	})
}
