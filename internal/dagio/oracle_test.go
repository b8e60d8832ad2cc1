package dagio

import (
	"encoding/json"
	"fmt"
	"io"

	"resched/internal/dag"
	"resched/internal/model"
)

// This file keeps the reflective reader and writer that Parse and
// Write replaced, verbatim but for their names and the reader's
// decodeErr result, which tells a decode error from a failed check.
// They are the oracles
// of the differential tests: Parse must accept exactly the documents
// oracleRead accepts and build the same graph, and Write must emit
// oracleWrite's bytes.

type jsonTask struct {
	Name  string         `json:"name,omitempty"`
	Seq   model.Duration `json:"seq"`
	Alpha float64        `json:"alpha"`
}

type jsonGraph struct {
	Tasks []jsonTask `json:"tasks"`
	Edges [][2]int   `json:"edges"`
}

// oracleWrite serializes the graph as indented JSON.
func oracleWrite(w io.Writer, g *dag.Graph) error {
	jg := jsonGraph{Tasks: make([]jsonTask, g.NumTasks())}
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(i)
		jg.Tasks[i] = jsonTask{Name: t.Name, Seq: t.Seq, Alpha: t.Alpha}
		for _, s := range g.Successors(i) {
			jg.Edges = append(jg.Edges, [2]int{i, s})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jg)
}

// oracleRead parses a JSON graph and validates it (acyclicity, edge
// bounds, task parameters). decodeErr reports that the error, if any,
// came from encoding/json rather than from the checks after it.
func oracleRead(r io.Reader) (g *dag.Graph, decodeErr bool, err error) {
	var jg jsonGraph
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jg); err != nil {
		return nil, true, fmt.Errorf("dagio: %w", err)
	}
	g = dag.New(len(jg.Tasks))
	for i, t := range jg.Tasks {
		if t.Seq < 0 {
			return nil, false, fmt.Errorf("dagio: task %d has negative seq %d", i, t.Seq)
		}
		if t.Alpha < 0 || t.Alpha > 1 {
			return nil, false, fmt.Errorf("dagio: task %d has alpha %v outside [0,1]", i, t.Alpha)
		}
		g.AddTask(dag.Task{Name: t.Name, Seq: t.Seq, Alpha: t.Alpha})
	}
	for _, e := range jg.Edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, false, fmt.Errorf("dagio: %w", err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, false, fmt.Errorf("dagio: %w", err)
	}
	return g, false, nil
}
