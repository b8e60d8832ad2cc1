package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"resched/internal/cpa"
	"resched/internal/dag"
	"resched/internal/daggen"
	"resched/internal/model"
	"resched/internal/profile"
)

// These tests pin the scheduling hot-path optimizations (batch profile
// fits, scratch-buffer candidate scans, clone-into working profiles)
// to the naive per-probe implementations they replaced: every
// algorithm must produce placement-for-placement identical schedules.

// naiveTurnaround is the pre-optimization turnaround inner loop: a
// fresh Clone of the availability profile, allocCandidates allocated
// per task, and one solo EarliestFit per candidate.
func naiveTurnaround(s *Scheduler, env Env, bl BLMethod, bd BDMethod) (*Schedule, error) {
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
	avail := env.Avail.CloneIntervals()
	sched := &Schedule{Now: env.Now, Tasks: make([]Placement, s.g.NumTasks())}
	for _, t := range order {
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
		bestM, bestStart, bestFinish := 0, model.Time(0), model.Infinity
		for _, m := range allocCandidates(task.Seq, task.Alpha, limit) {
			d := model.ExecTime(task.Seq, task.Alpha, m)
			st := avail.EarliestFit(m, d, ready)
			if st+d < bestFinish {
				bestM, bestStart, bestFinish = m, st, st+d
			}
		}
		if bestM == 0 {
			return nil, fmt.Errorf("core: no allocation bound for task %d", t)
		}
		if bestFinish > bestStart {
			if err := avail.Reserve(bestStart, bestFinish, bestM); err != nil {
				return nil, err
			}
		}
		sched.Tasks[t] = Placement{Procs: bestM, Start: bestStart, End: bestFinish}
	}
	return sched, nil
}

// naiveLatestPair is the pre-optimization aggressive pick: one solo
// LatestFit per candidate allocation.
func naiveLatestPair(avail profile.Intervals, task dag.Task, bound int, now, dl model.Time) (int, model.Time, bool) {
	bestM, bestStart, found := 0, model.Time(0), false
	for _, m := range allocCandidates(task.Seq, task.Alpha, bound) {
		d := model.ExecTime(task.Seq, task.Alpha, m)
		st, ok := avail.LatestFit(m, d, now, dl)
		if ok && (!found || st > bestStart) {
			bestM, bestStart, found = m, st, true
		}
	}
	return bestM, bestStart, found
}

// naiveBackwardOrder is the pre-plan backward order, rebuilt on every
// call: tasks in increasing BL_CPAR bottom level.
func naiveBackwardOrder(s *Scheduler, p, q int) ([]int, error) {
	exec, err := s.blExec(BLCPAR, p, q)
	if err != nil {
		return nil, err
	}
	fwd, err := cpa.PriorityOrder(s.g, exec)
	if err != nil {
		return nil, err
	}
	rev := make([]int, len(fwd))
	for i, t := range fwd {
		rev[len(fwd)-1-i] = t
	}
	return rev, nil
}

// naiveDeadline reimplements every backward scheduler with solo probes,
// a cloned profile, the backward order rebuilt per call and one full
// cpa.ListScheduleSubset of the unscheduled tasks per task for the RC
// reference start. The lambda hybrids sweep lambda over naiveDeadlineRC
// as DeadlineCtx does.
func naiveDeadline(s *Scheduler, env Env, algo DLAlgorithm, deadline model.Time) (*Schedule, error) {
	q, err := env.validate()
	if err != nil {
		return nil, err
	}
	if deadline < env.Now {
		return nil, fmt.Errorf("%w: deadline %d before now %d", ErrInfeasible, deadline, env.Now)
	}
	switch algo {
	case DLRCCPA:
		return naiveDeadlineRC(s, env, q, env.P, deadline, 0, false)
	case DLRCCPAR:
		return naiveDeadlineRC(s, env, q, q, deadline, 0, false)
	case DLRCCPARLambda, DLRCBDCPARLambda:
		for step := 0; float64(step)*LambdaStep <= 1; step++ {
			sched, err := naiveDeadlineRC(s, env, q, q, deadline, float64(step)*LambdaStep, algo == DLRCBDCPARLambda)
			if !errors.Is(err, ErrInfeasible) {
				return sched, err
			}
		}
		return nil, fmt.Errorf("%w: no lambda in [0,1] meets deadline %d", ErrInfeasible, deadline)
	}
	var bound []int
	switch algo {
	case DLBDAll:
		bound = s.g.UniformAlloc(env.P)
	case DLBDCPA:
		if bound, err = s.cpaAlloc(env.P); err != nil {
			return nil, err
		}
	case DLBDCPAR:
		if bound, err = s.cpaAlloc(q); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("naiveDeadline does not cover %v", algo)
	}
	order, err := naiveBackwardOrder(s, env.P, q)
	if err != nil {
		return nil, err
	}
	avail := env.Avail.CloneIntervals()
	sched := &Schedule{Now: env.Now, Tasks: make([]Placement, s.g.NumTasks())}
	for _, t := range order {
		dl := taskDeadline(sched, s.g.Successors(t), deadline)
		m, st, ok := naiveLatestPair(avail, s.g.Task(t), bound[t], env.Now, dl)
		if !ok {
			return nil, fmt.Errorf("%w: task %d has no feasible reservation before %d", ErrInfeasible, t, dl)
		}
		if err := naiveCommit(avail, sched, s.g.Task(t), t, m, st); err != nil {
			return nil, err
		}
	}
	return sched, nil
}

// naiveDeadlineRC is the resource-conservative scheduler with the
// lambda laxity and the optionally CPA-bounded fallback.
func naiveDeadlineRC(s *Scheduler, env Env, q, qRef int, deadline model.Time, lambda float64, boundedFallback bool) (*Schedule, error) {
	allocRef, err := s.cpaAlloc(qRef)
	if err != nil {
		return nil, err
	}
	order, err := naiveBackwardOrder(s, env.P, q)
	if err != nil {
		return nil, err
	}
	avail := env.Avail.CloneIntervals()
	sched := &Schedule{Now: env.Now, Tasks: make([]Placement, s.g.NumTasks())}
	unscheduled := make([]bool, s.g.NumTasks())
	for i := range unscheduled {
		unscheduled[i] = true
	}
	for _, t := range order {
		dl := taskDeadline(sched, s.g.Successors(t), deadline)
		task := s.g.Task(t)
		ref, err := cpa.ListScheduleSubset(s.g, allocRef, qRef, env.Now, unscheduled)
		if err != nil {
			return nil, err
		}
		threshold := ref.Start[t] + model.Time(math.Round(lambda*float64(dl-ref.Start[t])))
		var m int
		var st model.Time
		var ok bool
		for _, cand := range allocCandidates(task.Seq, task.Alpha, allocRef[t]) {
			d := model.ExecTime(task.Seq, task.Alpha, cand)
			lst, fits := avail.LatestFit(cand, d, env.Now, dl)
			if !fits || lst < threshold {
				continue
			}
			if !ok || lst < st {
				m, st, ok = cand, lst, true
			}
		}
		if !ok {
			bound := env.P
			if boundedFallback {
				bound = allocRef[t]
			}
			m, st, ok = naiveLatestPair(avail, task, bound, env.Now, dl)
		}
		if !ok {
			return nil, fmt.Errorf("%w: task %d has no feasible reservation before %d", ErrInfeasible, t, dl)
		}
		if err := naiveCommit(avail, sched, task, t, m, st); err != nil {
			return nil, err
		}
		unscheduled[t] = false
	}
	return sched, nil
}

// naiveCommit reserves and records one placement.
func naiveCommit(avail profile.Intervals, sched *Schedule, task dag.Task, t, m int, st model.Time) error {
	d := model.ExecTime(task.Seq, task.Alpha, m)
	if d > 0 {
		if err := avail.Reserve(st, st+d, m); err != nil {
			return err
		}
	}
	sched.Tasks[t] = Placement{Procs: m, Start: st, End: st + d}
	return nil
}

func samePlacements(t *testing.T, label string, got, want *Schedule) {
	t.Helper()
	if len(got.Tasks) != len(want.Tasks) {
		t.Fatalf("%s: %d tasks vs %d", label, len(got.Tasks), len(want.Tasks))
	}
	for i := range want.Tasks {
		if got.Tasks[i] != want.Tasks[i] {
			t.Fatalf("%s: task %d placed %+v, naive reference %+v", label, i, got.Tasks[i], want.Tasks[i])
		}
	}
}

// TestTurnaroundMatchesNaive compares every BL x BD heuristic against
// the naive reimplementation over random DAGs and reservation
// environments (>= 200 schedule comparisons).
func TestTurnaroundMatchesNaive(t *testing.T) {
	cases := 0
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := daggen.Default()
		spec.N = 30 + rng.Intn(40)
		g := daggen.MustGenerate(spec, rng)
		s := mustScheduler(t, g)
		for e := 0; e < 4; e++ {
			env := randomEnv(rng, 64, 1000)
			for _, bl := range AllBL {
				for _, bd := range []BDMethod{BDAll, BDCPA, BDCPAR} {
					got, err := s.Turnaround(env, bl, bd)
					if err != nil {
						t.Fatalf("seed %d env %d %v/%v: %v", seed, e, bl, bd, err)
					}
					want, err := naiveTurnaround(s, env, bl, bd)
					if err != nil {
						t.Fatalf("naive seed %d env %d %v/%v: %v", seed, e, bl, bd, err)
					}
					samePlacements(t, fmt.Sprintf("seed %d env %d %v/%v", seed, e, bl, bd), got, want)
					cases++
				}
			}
		}
	}
	if cases < 200 {
		t.Fatalf("only %d turnaround comparisons; the corpus should cover at least 200", cases)
	}
}

// TestDeadlineMatchesNaive compares the backward schedulers against
// the naive reimplementation, at a loose deadline (feasible for every
// algorithm) and a tight one (infeasibility must agree too).
func TestDeadlineMatchesNaive(t *testing.T) {
	algos := AllDL
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := daggen.Default()
		spec.N = 20 + rng.Intn(25)
		g := daggen.MustGenerate(spec, rng)
		s := mustScheduler(t, g)
		for e := 0; e < 2; e++ {
			env := randomEnv(rng, 64, 1000)
			base, err := s.Turnaround(env, BLCPAR, BDCPAR)
			if err != nil {
				t.Fatal(err)
			}
			loose := base.Completion() + model.Time(2*model.Day)
			tight := env.Now + (base.Completion()-env.Now)/4
			for _, algo := range algos {
				for _, deadline := range []model.Time{loose, tight} {
					got, errGot := s.Deadline(env, algo, deadline)
					want, errWant := naiveDeadline(s, env, algo, deadline)
					if (errGot == nil) != (errWant == nil) {
						t.Fatalf("seed %d env %d %v K=%d: optimized err %v, naive err %v",
							seed, e, algo, deadline, errGot, errWant)
					}
					if errGot == nil {
						samePlacements(t, fmt.Sprintf("seed %d env %d %v K=%d", seed, e, algo, deadline), got, want)
					}
				}
			}
		}
	}
}
