package core

import (
	"context"
	"fmt"

	"resched/internal/cpa"
	"resched/internal/model"
)

// Turnaround solves RESSCHED with the BL_x_BD_y heuristic of Section
// 4.2: compute bottom levels with method bl, then schedule tasks in
// decreasing bottom-level order, each at the <processors, start>
// pair that minimizes its completion time against the current
// reservation schedule, with allocations bounded by method bd.
func (s *Scheduler) Turnaround(env Env, bl BLMethod, bd BDMethod) (*Schedule, error) {
	return s.TurnaroundCtx(context.Background(), env, bl, bd)
}

// TurnaroundCtx is Turnaround with cooperative cancellation: the
// list-scheduling loop checks ctx between tasks, so a serving process
// can bound the latency of a single scheduling request. On
// cancellation it returns ctx.Err() (possibly wrapped).
func (s *Scheduler) TurnaroundCtx(ctx context.Context, env Env, bl BLMethod, bd BDMethod) (*Schedule, error) {
	q, err := env.validate()
	if err != nil {
		return nil, err
	}
	exec, err := s.blExec(bl, env.P, q)
	if err != nil {
		return nil, err
	}
	order, err := cpa.PriorityOrder(s.g, exec)
	if err != nil {
		return nil, err
	}
	bound, err := s.bounds(bd, env.P, q)
	if err != nil {
		return nil, err
	}

	avail := s.workingAvail(&env)
	sched := &Schedule{Now: env.Now, Tasks: make([]Placement, s.g.NumTasks())}
	for _, t := range order {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: turnaround scheduling: %w", err)
		}
		ready := env.Now
		for _, pr := range s.g.Predecessors(t) {
			if f := sched.Tasks[pr].End; f > ready {
				ready = f
			}
		}
		task := s.g.Task(t)
		limit := bound[t]
		if limit > env.P {
			limit = env.P
		}
		s.scratchReqs = appendFitRequests(s.scratchReqs[:0], task.Seq, task.Alpha, limit)
		reqs := s.scratchReqs
		s.scratchStarts = avail.EarliestFits(reqs, ready, s.scratchStarts)
		bestM, bestStart, bestFinish := 0, model.Time(0), model.Infinity
		for k := range reqs {
			if st := s.scratchStarts[k]; st+reqs[k].Dur < bestFinish {
				bestM, bestStart, bestFinish = reqs[k].Procs, st, st+reqs[k].Dur
			}
		}
		if bestM == 0 {
			return nil, fmt.Errorf("core: no allocation bound for task %d", t)
		}
		if bestFinish > bestStart {
			if err := avail.Reserve(bestStart, bestFinish, bestM); err != nil {
				return nil, fmt.Errorf("core: reserving task %d: %w", t, err)
			}
		}
		sched.Tasks[t] = Placement{Procs: bestM, Start: bestStart, End: bestFinish}
	}
	return sched, nil
}
