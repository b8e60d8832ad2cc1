package cpa

import (
	"fmt"

	"resched/internal/dag"
	"resched/internal/model"
	"resched/internal/profile"
)

// This file retains the naive allocation-phase implementation that
// Allocate replaced: one full levels() sweep for the stopping
// criterion plus another inside candidate selection, a full area
// re-summation per iteration, and model.Gain evaluated in the inner
// loop. It is the reference oracle for the differential tests
// (differential_test.go), which require the optimized Allocate to
// produce identical allocation vectors over the paper's Table 1
// parameter grid. It is not called on any serving path.
//
// It also keeps the CPA mapping phase, ListSchedule and
// ListScheduleSubset. The resource-conservative deadline algorithms
// once called ListScheduleSubset for every task of every probe; core's
// referenceStarts now derives all of those reference starts in one pass,
// and its differential tests require it to match ListScheduleSubset on
// every suffix of the backward order.

// referenceAllocate is the pre-optimization CPA allocation phase,
// kept verbatim.
func referenceAllocate(g *dag.Graph, p int, rule StopRule) ([]int, error) {
	if p < 1 {
		return nil, fmt.Errorf("cpa: cluster size %d < 1", p)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	alloc := g.UniformAlloc(1)
	exec := make([]float64, g.NumTasks())
	caps := make([]int, g.NumTasks())
	for i := range exec {
		exec[i] = model.ExecSeconds(g.Task(i).Seq, g.Task(i).Alpha, 1)
		caps[i] = p
		if rule == StopStringent {
			caps[i] = allocCap(g.Task(i).Alpha, p)
		}
	}

	tcp, ta := pressure(g, topo, alloc, exec, p)
	for tcp > ta {
		t := bestCandidate(g, topo, alloc, exec, caps)
		if t < 0 {
			break // every critical-path task is at its allocation cap
		}
		alloc[t]++
		exec[t] = model.ExecSeconds(g.Task(t).Seq, g.Task(t).Alpha, alloc[t])
		tcp, ta = pressure(g, topo, alloc, exec, p)
	}
	return alloc, nil
}

// levels computes float bottom and top levels over a fixed topological
// order.
func levels(g *dag.Graph, topo []int, exec []float64) (bl, tl []float64) {
	n := g.NumTasks()
	bl = make([]float64, n)
	tl = make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		t := topo[i]
		var best float64
		for _, s := range g.Successors(t) {
			if bl[s] > best {
				best = bl[s]
			}
		}
		bl[t] = exec[t] + best
	}
	for _, t := range topo {
		for _, p := range g.Predecessors(t) {
			if v := tl[p] + exec[p]; v > tl[t] {
				tl[t] = v
			}
		}
	}
	return bl, tl
}

// pressure computes (T_CP, T_A) for the current allocation: the
// critical path length and the average per-processor work, in
// fractional seconds.
func pressure(g *dag.Graph, topo []int, alloc []int, exec []float64, p int) (float64, float64) {
	bl, _ := levels(g, topo, exec)
	var cp float64
	for _, v := range bl {
		if v > cp {
			cp = v
		}
	}
	var area float64
	for i, m := range alloc {
		area += float64(m) * exec[i]
	}
	return cp, area / float64(p)
}

// bestCandidate returns the critical-path task with the largest
// per-processor gain whose allocation can still grow within its cap,
// or -1.
func bestCandidate(g *dag.Graph, topo []int, alloc []int, exec []float64, caps []int) int {
	bl, tl := levels(g, topo, exec)
	var cp float64
	for _, v := range bl {
		if v > cp {
			cp = v
		}
	}
	best := -1
	var bestGain float64
	for i := 0; i < g.NumTasks(); i++ {
		if tl[i]+bl[i] < cp-cpTolerance || alloc[i] >= caps[i] {
			continue
		}
		gain := model.Gain(g.Task(i).Seq, g.Task(i).Alpha, alloc[i])
		if best < 0 || gain > bestGain {
			best, bestGain = i, gain
		}
	}
	return best
}

// Schedule is a dedicated-cluster schedule produced by the CPA mapping
// phase: per-task start and finish times and allocations. Tasks
// excluded from a subset schedule carry Start = Finish = -1.
type Schedule struct {
	Start  []model.Time
	Finish []model.Time
	Alloc  []int
}

// Makespan returns the latest finish time across scheduled tasks, or
// the origin if none were scheduled.
func (s *Schedule) Makespan(origin model.Time) model.Time {
	m := origin
	for _, f := range s.Finish {
		if f > m {
			m = f
		}
	}
	return m
}

// ListSchedule runs the CPA mapping phase: tasks are scheduled in
// decreasing bottom-level order on a dedicated cluster of p processors
// free from origin onward, each task at min(alloc, p) processors, at
// the earliest time its predecessors have finished and enough
// processors are free.
func ListSchedule(g *dag.Graph, alloc []int, p int, origin model.Time) (*Schedule, error) {
	return ListScheduleSubset(g, alloc, p, origin, nil)
}

// ListScheduleSubset is ListSchedule restricted to the tasks marked in
// include (nil means all tasks). The included set must be closed under
// predecessors: scheduling a task whose predecessor is excluded is an
// error. This is what the resource-conservative deadline algorithms
// need — a CPA reference schedule of the not-yet-scheduled "upper"
// part of the DAG.
func ListScheduleSubset(g *dag.Graph, alloc []int, p int, origin model.Time, include []bool) (*Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("cpa: cluster size %d < 1", p)
	}
	n := g.NumTasks()
	if len(alloc) != n {
		return nil, fmt.Errorf("cpa: allocation vector has %d entries for %d tasks", len(alloc), n)
	}
	if include != nil && len(include) != n {
		return nil, fmt.Errorf("cpa: include vector has %d entries for %d tasks", len(include), n)
	}
	clamped := make([]int, n)
	for i, m := range alloc {
		if m < 1 {
			return nil, fmt.Errorf("cpa: task %d allocated %d processors", i, m)
		}
		if m > p {
			m = p
		}
		clamped[i] = m
	}
	exec, err := g.ExecTimes(clamped)
	if err != nil {
		return nil, err
	}
	order, err := PriorityOrder(g, exec)
	if err != nil {
		return nil, err
	}

	sched := &Schedule{
		Start:  make([]model.Time, n),
		Finish: make([]model.Time, n),
		Alloc:  clamped,
	}
	for i := range sched.Start {
		sched.Start[i], sched.Finish[i] = -1, -1
	}
	avail := profile.New(p, origin)
	for _, t := range order {
		if include != nil && !include[t] {
			continue
		}
		ready := origin
		for _, pr := range g.Predecessors(t) {
			if include != nil && !include[pr] {
				return nil, fmt.Errorf("cpa: task %d included but predecessor %d excluded", t, pr)
			}
			if sched.Finish[pr] > ready {
				ready = sched.Finish[pr]
			}
		}
		start := avail.EarliestFit(clamped[t], exec[t], ready)
		if exec[t] > 0 {
			if err := avail.Reserve(start, start+exec[t], clamped[t]); err != nil {
				return nil, fmt.Errorf("cpa: reserving task %d: %w", t, err)
			}
		}
		sched.Start[t], sched.Finish[t] = start, start+exec[t]
	}
	return sched, nil
}
