package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"resched/internal/model"
	"resched/internal/profile"
)

// LambdaStep is the step with which the hybrid algorithms sweep the
// laxity parameter lambda from 0 to 1 (Section 5.4).
const LambdaStep = 0.05

// Deadline solves RESSCHEDDL: it returns a schedule completing by
// deadline K, or ErrInfeasible (wrapped) if the algorithm cannot find
// one. Tasks are scheduled backward — in increasing bottom-level order,
// each constrained to finish before its already-scheduled successors
// start (Section 5.2). Bottom levels always use the BL_CPAR method,
// which Section 4.3.1 found best.
func (s *Scheduler) Deadline(env Env, algo DLAlgorithm, deadline model.Time) (*Schedule, error) {
	return s.DeadlineCtx(context.Background(), env, algo, deadline)
}

// DeadlineCtx is Deadline with cooperative cancellation: the backward
// list-scheduling loops (and the lambda sweep) check ctx between
// tasks, so a serving process can bound the latency of a single
// scheduling request. On cancellation it returns ctx.Err() (possibly
// wrapped).
func (s *Scheduler) DeadlineCtx(ctx context.Context, env Env, algo DLAlgorithm, deadline model.Time) (*Schedule, error) {
	q, err := env.validate()
	if err != nil {
		return nil, err
	}
	if deadline < env.Now {
		return nil, fmt.Errorf("%w: deadline %d before now %d", ErrInfeasible, deadline, env.Now)
	}
	switch algo {
	case DLBDAll, DLBDCPA, DLBDCPAR:
		return s.deadlineAggressive(ctx, env, q, algo, deadline)
	case DLRCCPA:
		return s.deadlineRC(ctx, env, q, env.P, deadline, 0, false)
	case DLRCCPAR:
		return s.deadlineRC(ctx, env, q, q, deadline, 0, false)
	case DLRCCPARLambda:
		return s.deadlineLambda(ctx, env, q, deadline, false)
	case DLRCBDCPARLambda:
		return s.deadlineLambda(ctx, env, q, deadline, true)
	default:
		return nil, fmt.Errorf("core: unknown deadline algorithm %v", algo)
	}
}

// taskDeadline returns the time by which task t must finish: the
// minimum start time of its (already scheduled) successors, or the
// application deadline if it has none.
func taskDeadline(sched *Schedule, succs []int, deadline model.Time) model.Time {
	dl := deadline
	for _, sc := range succs {
		if st := sched.Tasks[sc].Start; st < dl {
			dl = st
		}
	}
	return dl
}

// latestPair finds the <processors, start> pair with the latest start
// time among the candidate probes reqs, the aggressive choice of
// Section 5.2.1. Ties favor fewer processors. reqs is an allocation
// ladder, so one LatestFitMax query answers it, stopping at the first
// profile segment where some candidate resolves.
func latestPair(avail profile.Intervals, reqs []profile.FitRequest, now, dl model.Time) (int, model.Time, bool) {
	k, st, ok := avail.LatestFitMax(reqs, now, dl)
	if !ok {
		return 0, 0, false
	}
	return reqs[k].Procs, st, true
}

func (s *Scheduler) deadlineAggressive(ctx context.Context, env Env, q int, algo DLAlgorithm, deadline model.Time) (*Schedule, error) {
	// DL_BD_CPA bounds allocations by the CPA allocation for p,
	// DL_BD_CPAR by the one for q; DL_BD_ALL uses the unbounded probes.
	qRef := q
	switch algo {
	case DLBDAll, DLBDCPAR:
	case DLBDCPA:
		qRef = env.P
	default:
		// DeadlineCtx dispatches only the DL_BD algorithms here; an
		// unhandled one would otherwise fall through to DL_BD_CPAR's
		// bound and fail far from the cause.
		return nil, fmt.Errorf("core: %v is not an aggressive deadline algorithm", algo)
	}
	pl, err := s.plan(env.P, q, qRef)
	if err != nil {
		return nil, err
	}
	avail := s.workingAvail(&env)
	sched := &Schedule{Now: env.Now, Tasks: make([]Placement, s.g.NumTasks())}
	for _, t := range pl.order {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: deadline scheduling: %w", err)
		}
		dl := taskDeadline(sched, s.g.Successors(t), deadline)
		reqs := pl.bounded[t]
		if algo == DLBDAll {
			reqs = s.unbounded(pl, t, env.P)
		}
		m, st, ok := latestPair(avail, reqs, env.Now, dl)
		if !ok {
			return nil, fmt.Errorf("%w: task %d has no feasible reservation before %d (%s)", ErrInfeasible, t, dl, algo)
		}
		if err := s.commit(avail, sched, t, m, st); err != nil {
			return nil, err
		}
	}
	return sched, nil
}

// deadlineRC is the resource-conservative scheduler of Section 5.2.2,
// generalized with the lambda laxity of Section 5.4. qRef selects the
// cluster size of the CPA reference schedule (p for DL_RC_CPA, the
// historical average for DL_RC_CPAR). When an RC pick is impossible the
// algorithm falls back to the aggressive latest-start choice, bounded
// by the CPA allocation when boundedFallback is set (DL_RCBD_CPAR-λ).
func (s *Scheduler) deadlineRC(ctx context.Context, env Env, q, qRef int, deadline model.Time, lambda float64, boundedFallback bool) (*Schedule, error) {
	pl, err := s.plan(env.P, q, qRef)
	if err != nil {
		return nil, err
	}
	if pl.ref == nil {
		ref, err := referenceStarts(ctx, s.g, pl.order, pl.alloc, qRef)
		if err != nil {
			return nil, fmt.Errorf("core: CPA reference schedule: %w", err)
		}
		pl.ref = ref
	}
	avail := s.workingAvail(&env)
	sched := &Schedule{Now: env.Now, Tasks: make([]Placement, s.g.NumTasks())}
	for _, t := range pl.order {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: deadline scheduling: %w", err)
		}
		dl := taskDeadline(sched, s.g.Successors(t), deadline)

		// CPA reference start time S_t: t's start in a CPA schedule of
		// the not-yet-scheduled upper part of the DAG, on a dedicated
		// cluster of qRef processors starting now.
		refStart := env.Now + pl.ref[t]

		// Laxity-adjusted threshold: S_t + lambda*(dl_t - S_t). With
		// lambda = 0 this is the plain RC rule; lambda = 1 pushes the
		// threshold to the task deadline, forcing aggressive behavior.
		threshold := refStart + model.Time(math.Round(lambda*float64(dl-refStart)))

		// RC pick: each allocation's candidate is its latest feasible
		// start before the task deadline; among candidates starting at
		// or after the threshold, take the earliest-starting one —
		// equivalently (Section 5.2.2) the fewest processors that do
		// not preclude meeting the deadline. Allocations are bounded by
		// the CPA allocation, the same search space the aggressive
		// algorithms use (the paper equates lambda = 1 with them). When
		// the deadline is loose the candidate start is far past S_t and
		// one processor wins; as it tightens, candidate starts compress
		// toward S_t and the allocation grows toward the CPA schedule's.
		// The threshold is the window floor: a floor at or below a
		// candidate's latest start leaves it unchanged, and one above
		// it reports no fit, so exactly the qualifying candidates come
		// back and the sweep stops at the threshold instead of at Now.
		reqs := pl.bounded[t]
		s.scratchStarts, s.scratchOK = avail.LatestFits(reqs, max(env.Now, threshold), dl, s.scratchStarts, s.scratchOK)
		m, st, ok := 0, model.Time(0), false
		for k := range reqs {
			lst := s.scratchStarts[k]
			if !s.scratchOK[k] {
				continue
			}
			if !ok || lst < st {
				m, st, ok = reqs[k].Procs, lst, true
			}
		}
		if !ok {
			// Aggressive fallback ("back on track", Section 5.2.2 /
			// 5.4): latest start, optionally bounded by the CPA
			// allocation.
			if !boundedFallback {
				reqs = s.unbounded(pl, t, env.P)
			}
			m, st, ok = latestPair(avail, reqs, env.Now, dl)
		}
		if !ok {
			return nil, fmt.Errorf("%w: task %d has no feasible reservation before %d (RC)", ErrInfeasible, t, dl)
		}
		if err := s.commit(avail, sched, t, m, st); err != nil {
			return nil, err
		}
	}
	return sched, nil
}

// deadlineLambda sweeps lambda from 0 to 1 in LambdaStep increments,
// returning the first schedule that meets the deadline — i.e. the most
// resource-conservative laxity that works (Section 5.4).
func (s *Scheduler) deadlineLambda(ctx context.Context, env Env, q int, deadline model.Time, boundedFallback bool) (*Schedule, error) {
	var lastErr error
	for step := 0; ; step++ {
		lambda := float64(step) * LambdaStep
		if lambda > 1 {
			break
		}
		sched, err := s.deadlineRC(ctx, env, q, q, deadline, lambda, boundedFallback)
		if err == nil {
			return sched, nil
		}
		if !errors.Is(err, ErrInfeasible) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: no lambda in [0,1] meets deadline %d (last: %v)", ErrInfeasible, deadline, lastErr)
}

// commit reserves the chosen placement and records it.
func (s *Scheduler) commit(avail profile.Intervals, sched *Schedule, t, m int, st model.Time) error {
	d := model.ExecTime(s.g.Task(t).Seq, s.g.Task(t).Alpha, m)
	if d > 0 {
		if err := avail.Reserve(st, st+d, m); err != nil {
			return fmt.Errorf("core: reserving task %d: %w", t, err)
		}
	}
	sched.Tasks[t] = Placement{Procs: m, Start: st, End: st + d}
	return nil
}
