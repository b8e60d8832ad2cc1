package dagio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"resched/internal/dag"
	"resched/internal/daggen"
)

func TestRoundTrip(t *testing.T) {
	g := dag.New(3)
	g.AddTask(dag.Task{Name: "a", Seq: 100, Alpha: 0.1})
	g.AddTask(dag.Task{Seq: 200, Alpha: 0.2})
	g.AddTask(dag.Task{Name: "c", Seq: 300})
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)

	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTasks() != 3 || back.NumEdges() != 3 {
		t.Fatalf("round trip: %v", back)
	}
	for i := 0; i < 3; i++ {
		if back.Task(i) != g.Task(i) {
			t.Fatalf("task %d: %+v != %+v", i, back.Task(i), g.Task(i))
		}
	}
	for i := 0; i < 3; i++ {
		if len(back.Successors(i)) != len(g.Successors(i)) {
			t.Fatalf("edges of %d differ", i)
		}
	}
}

func TestRoundTripGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := daggen.MustGenerate(daggen.Default(), rng)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTasks() != g.NumTasks() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: %v vs %v", back, g)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"tasks": [{"seq": -1, "alpha": 0}], "edges": []}`,
		`{"tasks": [{"seq": 1, "alpha": 2}], "edges": []}`,
		`{"tasks": [{"seq": 1, "alpha": 0}], "edges": [[0, 5]]}`,
		`{"tasks": [{"seq": 1, "alpha": 0}], "edges": [[0, 0]]}`,
		`{"tasks": [], "edges": []}`,
		`{"tasks": [{"seq": 1, "alpha": 0, "bogus": 1}], "edges": []}`,
		`{"tasks": [{"seq": 1.5, "alpha": 0}], "edges": []}`,
		`{"tasks": [{"seq": 1e3, "alpha": 0}], "edges": []}`,
		`{"tasks": [{"seq": 3600.0, "alpha": 0}], "edges": []}`,
		`{"tasks": [{"seq": 1, "alpha": 0}, {"seq": 1, "alpha": 0}], "edges": [[0, 1.0]]}`,
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("case %d accepted: %s", i, in)
		}
	}
}

func TestReadDetectsCycle(t *testing.T) {
	in := `{"tasks": [{"seq": 1, "alpha": 0}, {"seq": 1, "alpha": 0}], "edges": [[0,1],[1,0]]}`
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}
