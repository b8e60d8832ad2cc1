package core

import (
	"context"
	"fmt"
	"slices"

	"resched/internal/cpa"
	"resched/internal/dag"
	"resched/internal/model"
	"resched/internal/profile"
)

// planKey is the cluster shape a RESSCHEDDL plan serves: the machine
// size p, the historical average q, and the size qRef of the cluster
// the CPA reference allocation is computed for.
type planKey struct{ p, q, qRef int }

// dlPlan is the part of a RESSCHEDDL computation that depends on
// neither the deadline K nor the laxity lambda. Every probe of a
// tightest-deadline search and every step of a lambda sweep reuses it
// and does only the K-dependent work: task deadlines, the fit queries
// (LatestFits, LatestFitMax) and Reserve on its working profile.
type dlPlan struct {
	// order is the backward scheduling order: tasks by increasing
	// BL_CPAR bottom level.
	order []int
	// alloc is the CPA allocation for qRef.
	alloc []int
	// ref[t] is task t's CPA reference start S_t minus Now (see
	// referenceStarts). It stays nil until a resource-conservative call
	// completes the pass that fills it.
	ref []model.Duration
	// bounded[t] probes task t's allocations in [1, alloc[t]].
	bounded [][]profile.FitRequest
	// full[t] probes [1, p]; filled on t's first unbounded pick.
	full [][]profile.FitRequest
}

// plan returns the RESSCHEDDL plan for a cluster shape, building it on
// first use.
func (s *Scheduler) plan(p, q, qRef int) (*dlPlan, error) {
	key := planKey{p, q, qRef}
	if pl, ok := s.plans[key]; ok {
		return pl, nil
	}
	exec, err := s.blExec(BLCPAR, p, q)
	if err != nil {
		return nil, err
	}
	order, err := cpa.PriorityOrder(s.g, exec)
	if err != nil {
		return nil, err
	}
	slices.Reverse(order)
	alloc, err := s.cpaAlloc(qRef)
	if err != nil {
		return nil, err
	}
	n := s.g.NumTasks()
	pl := &dlPlan{order: order, alloc: alloc, bounded: make([][]profile.FitRequest, n), full: make([][]profile.FitRequest, n)}
	// A task has at most alloc[t] probes, so buf never grows and every
	// bounded[t] is a window of one array.
	total := 0
	for _, m := range alloc {
		total += m
	}
	buf := make([]profile.FitRequest, 0, total)
	for t := range pl.bounded {
		task := s.g.Task(t)
		from := len(buf)
		buf = appendFitRequests(buf, task.Seq, task.Alpha, alloc[t])
		pl.bounded[t] = buf[from:len(buf):len(buf)]
	}
	if s.plans == nil {
		s.plans = make(map[planKey]*dlPlan)
	}
	s.plans[key] = pl
	return pl, nil
}

// unbounded returns task t's probes over [1, p], building them on first
// use in an array of their exact size.
func (s *Scheduler) unbounded(pl *dlPlan, t, p int) []profile.FitRequest {
	if pl.full[t] == nil {
		task := s.g.Task(t)
		s.scratchReqs = appendFitRequests(s.scratchReqs[:0], task.Seq, task.Alpha, p)
		pl.full[t] = slices.Clone(s.scratchReqs)
	}
	return pl.full[t]
}

// referenceStarts returns every task's CPA reference start S_t for the
// resource-conservative algorithms (Section 5.2.2): t's start in the
// CPA list schedule of the tasks still unscheduled when the backward
// pass reaches t — the suffix of order that begins at t — on a
// dedicated cluster of p processors, each task on min(alloc, p). It
// depends only on the DAG, alloc, p and order, never on K or lambda.
// Starts are offsets from the schedule's origin: on an empty cluster
// every start is a sum of durations, so the schedule from Now is the
// schedule from 0 shifted by Now.
//
// A list schedule places tasks one by one in priority order, so a task's
// start depends only on the tasks placed before it. The suffixes are
// walked from the shortest, each adding one task; while the added task
// comes after everything placed so far, the placements are the previous
// suffix's and the replay continues where it stopped. Otherwise it
// restarts on an empty cluster. When order is the exact reverse of the
// priority order — DL_RC_CPAR, whose bottom levels and reference
// allocation are both CPA's for q — the whole pass is one list schedule.
func referenceStarts(ctx context.Context, g *dag.Graph, order, alloc []int, p int) ([]model.Duration, error) {
	n := g.NumTasks()
	clamped := make([]int, n)
	for i, m := range alloc {
		clamped[i] = min(m, p)
	}
	exec, err := g.ExecTimes(clamped)
	if err != nil {
		return nil, err
	}
	prio, err := cpa.PriorityOrder(g, exec)
	if err != nil {
		return nil, err
	}
	rank := make([]int, n)
	for r, t := range prio {
		rank[t] = r
	}
	in := make([]bool, n) // membership of the current suffix
	finish := make([]model.Time, n)
	ref := make([]model.Duration, n)
	empty, avail := profile.New(p, 0), profile.New(p, 0)
	next := n // prio[:next] has been replayed for the current suffix
	for i := n - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := order[i]
		in[t] = true
		if rank[t] < next {
			empty.CloneInto(avail)
			next = 0
		}
		for ; next <= rank[t]; next++ {
			u := prio[next]
			if !in[u] {
				continue
			}
			var ready model.Time
			for _, pr := range g.Predecessors(u) {
				if !in[pr] {
					return nil, fmt.Errorf("task %d included but predecessor %d excluded", u, pr)
				}
				ready = max(ready, finish[pr])
			}
			start := avail.EarliestFit(clamped[u], exec[u], ready)
			if exec[u] > 0 {
				if err := avail.Reserve(start, start+exec[u], clamped[u]); err != nil {
					return nil, fmt.Errorf("reserving task %d: %w", u, err)
				}
			}
			finish[u] = start + exec[u]
		}
		ref[t] = finish[t] - exec[t]
	}
	return ref, nil
}
