// Package dag implements the mixed-parallel application model of the
// paper's Section 3.1: a directed acyclic graph whose vertices are
// data-parallel (malleable) tasks and whose edges are precedence
// constraints. Task execution times follow Amdahl's law (package
// model); the graph itself is oblivious to allocations and exposes the
// structural queries the schedulers need — topological order, levels,
// and bottom levels for arbitrary execution-time vectors.
package dag

import (
	"fmt"
	"sort"
	"strings"

	"resched/internal/model"
)

// Task is one data-parallel task of a mixed-parallel application.
type Task struct {
	// Name is an optional human-readable label (used by examples and
	// DOT export); it plays no role in scheduling.
	Name string
	// Seq is the sequential execution time T_i in seconds.
	Seq model.Duration
	// Alpha is the non-parallelizable fraction of the task in [0, 1].
	Alpha float64
}

// Graph is a mixed-parallel application DAG. Tasks are identified by
// dense integer IDs in [0, N). The zero value is an empty graph ready
// for use.
//
// Unlike the paper's exposition, the graph is not required to have a
// single entry and a single exit task: every algorithm in this library
// handles multiple sources and sinks, which the paper notes is "without
// loss of generality".
type Graph struct {
	tasks []Task
	succ  [][]int
	pred  [][]int
	edges int
	// arena backs the adjacency lists: AddEdge grows them by carving
	// capacity out of shared blocks, so building a graph costs a few
	// allocations per block instead of two per edge. The serving path
	// parses a fresh DAG per schedule request, where those per-edge
	// allocations dominated the request's allocation profile.
	arena []int
	// topo caches the computed topological order; any mutation clears
	// it. Validate, Levels, BottomLevels and TopLevels each re-derive
	// the order, so one schedule request would otherwise run Kahn's
	// algorithm roughly ten times over an unchanged graph. The cached
	// slice is only ever replaced, never written in place, which is
	// what lets Clone and TopoOrder hand it out safely.
	topo []int
}

// arenaBlock is the adjacency-arena block size in ints (one block per
// ~512 edge endpoints; doubling growth abandons at most half a list's
// previous capacity inside a block).
const arenaBlock = 512

// firstBlockPerTask sizes a graph's first arena block: this many ints
// per task, up to arenaBlock. The layered daggen graphs of up to 25
// tasks need at most 12 per task, so a small request DAG fits one
// block a fraction of arenaBlock's size.
const firstBlockPerTask = 16

// carve returns an empty int slice with capacity c backed by the edge
// arena, starting a fresh block when the current one cannot fit c.
// The full-slice expression caps the result so appends beyond c can
// never bleed into a neighbouring list.
func (g *Graph) carve(c int) []int {
	if cap(g.arena)-len(g.arena) < c {
		size := arenaBlock
		if g.arena == nil {
			size = min(size, firstBlockPerTask*len(g.tasks))
		}
		g.arena = make([]int, 0, max(size, c))
	}
	off := len(g.arena)
	out := g.arena[off : off : off+c]
	g.arena = g.arena[:off+c]
	return out
}

// appendID appends v to adjacency list l, growing through the arena
// with doubling capacity.
func (g *Graph) appendID(l []int, v int) []int {
	if len(l) == cap(l) {
		nc := 2 * cap(l)
		if nc < 4 {
			nc = 4
		}
		nl := g.carve(nc)
		l = append(nl, l...)
	}
	return append(l, v)
}

// New returns an empty graph with capacity for n tasks.
func New(n int) *Graph {
	return &Graph{
		tasks: make([]Task, 0, n),
		succ:  make([][]int, 0, n),
		pred:  make([][]int, 0, n),
	}
}

// AddTask appends a task and returns its ID.
func (g *Graph) AddTask(t Task) int {
	if t.Seq < 0 {
		panic(fmt.Sprintf("dag: negative sequential time %d", t.Seq))
	}
	if t.Alpha < 0 || t.Alpha > 1 {
		panic(fmt.Sprintf("dag: alpha %v outside [0,1]", t.Alpha))
	}
	g.tasks = append(g.tasks, t)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.topo = nil
	return len(g.tasks) - 1
}

// AddEdge adds the precedence constraint from -> to. Duplicate edges
// are ignored. Self-loops are rejected immediately; cycles spanning
// several edges are caught by Validate.
func (g *Graph) AddEdge(from, to int) error {
	if from < 0 || from >= len(g.tasks) || to < 0 || to >= len(g.tasks) {
		return fmt.Errorf("dag: edge (%d -> %d) references unknown task (have %d tasks)", from, to, len(g.tasks))
	}
	if from == to {
		return fmt.Errorf("dag: self-loop on task %d", from)
	}
	for _, s := range g.succ[from] {
		if s == to {
			return nil
		}
	}
	g.succ[from] = g.appendID(g.succ[from], to)
	g.pred[to] = g.appendID(g.pred[to], from)
	g.edges++
	g.topo = nil
	return nil
}

// MustAddEdge is AddEdge that panics on error; it is intended for
// hand-built graphs in tests and examples.
func (g *Graph) MustAddEdge(from, to int) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// NumTasks returns the number of tasks V.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges returns the number of edges E.
func (g *Graph) NumEdges() int { return g.edges }

// Task returns the task with the given ID.
func (g *Graph) Task(id int) Task { return g.tasks[id] }

// Successors returns the direct successors of task id. The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) Successors(id int) []int { return g.succ[id] }

// Predecessors returns the direct predecessors of task id. The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) Predecessors(id int) []int { return g.pred[id] }

// Sources returns the tasks with no predecessors, in ID order.
func (g *Graph) Sources() []int {
	var out []int
	for i := range g.tasks {
		if len(g.pred[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Sinks returns the tasks with no successors, in ID order.
func (g *Graph) Sinks() []int {
	var out []int
	for i := range g.tasks {
		if len(g.succ[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// TopoOrder returns a topological ordering of the tasks, or an error if
// the graph contains a cycle (Kahn's algorithm; ties resolved by task
// ID so the order is deterministic). The result is a fresh slice the
// caller may modify.
func (g *Graph) TopoOrder() ([]int, error) {
	order, err := g.topoOrder()
	if err != nil {
		return nil, err
	}
	return append([]int(nil), order...), nil
}

// topoOrder computes the topological order once per graph mutation and
// serves it from the cache afterwards. Callers must not modify the
// returned slice.
func (g *Graph) topoOrder() ([]int, error) {
	if g.topo != nil && len(g.topo) == len(g.tasks) {
		return g.topo, nil
	}
	n := len(g.tasks)
	indeg := make([]int, n)
	for i := range g.tasks {
		indeg[i] = len(g.pred[i])
	}
	// Min-ID-first frontier for determinism.
	frontier := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	order := make([]int, 0, n)
	for len(frontier) > 0 {
		sort.Ints(frontier)
		next := frontier[0]
		frontier = frontier[1:]
		order = append(order, next)
		for _, s := range g.succ[next] {
			indeg[s]--
			if indeg[s] == 0 {
				frontier = append(frontier, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag: graph contains a cycle (%d of %d tasks ordered)", len(order), n)
	}
	g.topo = order
	return order, nil
}

// Validate checks that the graph is a DAG with sane task parameters.
func (g *Graph) Validate() error {
	if len(g.tasks) == 0 {
		return fmt.Errorf("dag: empty graph")
	}
	if _, err := g.topoOrder(); err != nil {
		return err
	}
	return nil
}

// Levels assigns each task its precedence level: sources are level 0
// and every other task sits one past its deepest predecessor. This is
// the "level" of the paper's DAG-shape parameters. Returns an error on
// cyclic graphs.
func (g *Graph) Levels() ([]int, error) {
	order, err := g.topoOrder()
	if err != nil {
		return nil, err
	}
	lvl := make([]int, len(g.tasks))
	for _, t := range order {
		for _, p := range g.pred[t] {
			if lvl[p]+1 > lvl[t] {
				lvl[t] = lvl[p] + 1
			}
		}
	}
	return lvl, nil
}

// NumLevels returns 1 + the maximum level.
func (g *Graph) NumLevels() (int, error) {
	lvl, err := g.Levels()
	if err != nil {
		return 0, err
	}
	max := 0
	for _, l := range lvl {
		if l > max {
			max = l
		}
	}
	return max + 1, nil
}

// BottomLevels computes, for each task, the maximum execution-time sum
// over paths from the task (inclusive) to any sink, given per-task
// execution times exec. This is the standard list-scheduling priority
// used by all of the paper's algorithms (Section 4.2).
func (g *Graph) BottomLevels(exec []model.Duration) ([]model.Duration, error) {
	if len(exec) != len(g.tasks) {
		return nil, fmt.Errorf("dag: exec vector has %d entries for %d tasks", len(exec), len(g.tasks))
	}
	order, err := g.topoOrder()
	if err != nil {
		return nil, err
	}
	bl := make([]model.Duration, len(g.tasks))
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		var best model.Duration
		for _, s := range g.succ[t] {
			if bl[s] > best {
				best = bl[s]
			}
		}
		bl[t] = exec[t] + best
	}
	return bl, nil
}

// TopLevels computes, for each task, the maximum execution-time sum
// over paths from any source to the task (exclusive of the task
// itself): the earliest time the task could start on an unbounded
// machine.
func (g *Graph) TopLevels(exec []model.Duration) ([]model.Duration, error) {
	if len(exec) != len(g.tasks) {
		return nil, fmt.Errorf("dag: exec vector has %d entries for %d tasks", len(exec), len(g.tasks))
	}
	order, err := g.topoOrder()
	if err != nil {
		return nil, err
	}
	tl := make([]model.Duration, len(g.tasks))
	for _, t := range order {
		for _, p := range g.pred[t] {
			if v := tl[p] + exec[p]; v > tl[t] {
				tl[t] = v
			}
		}
	}
	return tl, nil
}

// CriticalPathLength returns the length of the longest path through the
// graph under the given execution times: max over tasks of bottom
// level.
func (g *Graph) CriticalPathLength(exec []model.Duration) (model.Duration, error) {
	bl, err := g.BottomLevels(exec)
	if err != nil {
		return 0, err
	}
	var cp model.Duration
	for _, v := range bl {
		if v > cp {
			cp = v
		}
	}
	return cp, nil
}

// ExecTimes evaluates the Amdahl model for every task under the given
// allocation vector (processors per task).
func (g *Graph) ExecTimes(alloc []int) ([]model.Duration, error) {
	if len(alloc) != len(g.tasks) {
		return nil, fmt.Errorf("dag: allocation vector has %d entries for %d tasks", len(alloc), len(g.tasks))
	}
	exec := make([]model.Duration, len(g.tasks))
	for i, t := range g.tasks {
		exec[i] = model.ExecTime(t.Seq, t.Alpha, alloc[i])
	}
	return exec, nil
}

// UniformAlloc returns an allocation vector assigning m processors to
// every task.
func (g *Graph) UniformAlloc(m int) []int {
	alloc := make([]int, len(g.tasks))
	for i := range alloc {
		alloc[i] = m
	}
	return alloc
}

// TotalSequentialWork returns the sum of sequential execution times —
// the application's total work on one processor per task.
func (g *Graph) TotalSequentialWork() model.Duration {
	var sum model.Duration
	for _, t := range g.tasks {
		sum += t.Seq
	}
	return sum
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		tasks: append([]Task(nil), g.tasks...),
		succ:  make([][]int, len(g.succ)),
		pred:  make([][]int, len(g.pred)),
		edges: g.edges,
		// The cached order is replaced, never written in place, so the
		// clone can share it until either graph mutates.
		topo: g.topo,
	}
	for i := range g.succ {
		c.succ[i] = append([]int(nil), g.succ[i]...)
		c.pred[i] = append([]int(nil), g.pred[i]...)
	}
	return c
}

// DOT renders the graph in Graphviz format, one node per task labeled
// with name (or ID), sequential time, and alpha.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph app {\n  rankdir=TB;\n")
	for i, t := range g.tasks {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("t%d", i)
		}
		fmt.Fprintf(&b, "  %d [label=\"%s\\nT=%ds a=%.2f\"];\n", i, name, t.Seq, t.Alpha)
	}
	for i := range g.tasks {
		for _, s := range g.succ[i] {
			fmt.Fprintf(&b, "  %d -> %d;\n", i, s)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("dag{tasks: %d, edges: %d}", len(g.tasks), g.edges)
}
