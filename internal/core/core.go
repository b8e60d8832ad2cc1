// Package core implements the paper's scheduling algorithms for
// mixed-parallel applications under advance reservations:
//
//   - RESSCHED (Section 4): minimize application turn-around time.
//     Twelve list-scheduling heuristics named BL_x_BD_y combine a
//     bottom-level computation method x in {1, ALL, CPA, CPAR} with an
//     allocation bounding method y in {ALL, CPA, CPAR}, plus the
//     BD_HALF strawman of Section 4.3.2.
//
//   - RESSCHEDDL (Section 5): meet a deadline K. Aggressive algorithms
//     DL_BD_{ALL,CPA,CPAR} schedule backward from K picking the latest
//     feasible start; resource-conservative algorithms DL_RC_{CPA,CPAR}
//     pick the cheapest allocation whose start stays after a
//     CPA-computed reference start time; DL_RC_CPAR-λ and
//     DL_RCBD_CPAR-λ are the hybrid variants of Section 5.4.
//
// All algorithms share the same skeleton: compute task bottom levels
// from CPA-informed execution-time estimates, then place one
// reservation per task against the availability profile.
package core

import (
	"errors"
	"fmt"

	"resched/internal/cpa"
	"resched/internal/dag"
	"resched/internal/model"
	"resched/internal/profile"
)

// BLMethod selects how task execution times are estimated when
// computing bottom levels (Section 4.2, question 1).
type BLMethod int

const (
	// BL1 estimates every task on a single processor.
	BL1 BLMethod = iota
	// BLAll estimates every task on all p processors.
	BLAll
	// BLCPA uses CPA allocations computed for p processors.
	BLCPA
	// BLCPAR uses CPA allocations computed for q processors, the
	// historical average number of available processors.
	BLCPAR
)

// AllBL lists the bottom-level methods in paper order.
var AllBL = []BLMethod{BL1, BLAll, BLCPA, BLCPAR}

func (m BLMethod) String() string {
	switch m {
	case BL1:
		return "BL_1"
	case BLAll:
		return "BL_ALL"
	case BLCPA:
		return "BL_CPA"
	case BLCPAR:
		return "BL_CPAR"
	default:
		return fmt.Sprintf("BLMethod(%d)", int(m))
	}
}

// BDMethod selects how task allocations are bounded during the mapping
// phase (Section 4.2, question 2).
type BDMethod int

const (
	// BDAll bounds allocations only by the cluster size p.
	BDAll BDMethod = iota
	// BDHalf arbitrarily bounds allocations by p/2 (strawman).
	BDHalf
	// BDCPA bounds each task by its CPA allocation computed for p.
	BDCPA
	// BDCPAR bounds each task by its CPA allocation computed for q.
	BDCPAR
)

// AllBD lists the bounding methods in the order of Table 4.
var AllBD = []BDMethod{BDAll, BDHalf, BDCPA, BDCPAR}

func (m BDMethod) String() string {
	switch m {
	case BDAll:
		return "BD_ALL"
	case BDHalf:
		return "BD_HALF"
	case BDCPA:
		return "BD_CPA"
	case BDCPAR:
		return "BD_CPAR"
	default:
		return fmt.Sprintf("BDMethod(%d)", int(m))
	}
}

// DLAlgorithm selects a deadline-scheduling algorithm (Section 5).
type DLAlgorithm int

const (
	// DLBDAll schedules backward, latest start, allocations bounded
	// only by p.
	DLBDAll DLAlgorithm = iota
	// DLBDCPA bounds allocations by CPA allocations for q = p.
	DLBDCPA
	// DLBDCPAR bounds allocations by CPA allocations for the
	// historical average q.
	DLBDCPAR
	// DLRCCPA is resource conservative with CPA reference start times
	// computed for q = p.
	DLRCCPA
	// DLRCCPAR is resource conservative with reference start times for
	// the historical average q.
	DLRCCPAR
	// DLRCCPARLambda is the hybrid of Section 5.4: it sweeps the
	// laxity parameter lambda from 0 to 1 in steps of 0.05 until the
	// deadline is met.
	DLRCCPARLambda
	// DLRCBDCPARLambda additionally bounds the aggressive fallback by
	// the CPA allocation (last row of Table 7).
	DLRCBDCPARLambda
)

// AllDL lists the deadline algorithms in the order of Table 6 followed
// by the Table 7 hybrids.
var AllDL = []DLAlgorithm{DLBDAll, DLBDCPA, DLBDCPAR, DLRCCPA, DLRCCPAR, DLRCCPARLambda, DLRCBDCPARLambda}

func (a DLAlgorithm) String() string {
	switch a {
	case DLBDAll:
		return "DL_BD_ALL"
	case DLBDCPA:
		return "DL_BD_CPA"
	case DLBDCPAR:
		return "DL_BD_CPAR"
	case DLRCCPA:
		return "DL_RC_CPA"
	case DLRCCPAR:
		return "DL_RC_CPAR"
	case DLRCCPARLambda:
		return "DL_RC_CPAR-l"
	case DLRCBDCPARLambda:
		return "DL_RCBD_CPAR-l"
	default:
		return fmt.Sprintf("DLAlgorithm(%d)", int(a))
	}
}

// ErrInfeasible is returned by deadline scheduling when no schedule
// meeting the deadline was found.
var ErrInfeasible = errors.New("core: deadline cannot be met")

// Env is one scheduling environment: the cluster, the current time,
// the competing-reservation profile, and the historical average number
// of available processors q used by the *_CPAR methods.
type Env struct {
	// P is the total number of processors in the cluster.
	P int
	// Now is the time at which scheduling happens; every task
	// reservation starts at or after Now.
	Now model.Time
	// Avail is the availability profile holding all competing
	// reservations, on either backend (flat *profile.Profile or
	// *profile.PersistentProfile, as resbook snapshots hand them out).
	// Its origin must not be after Now. Schedulers clone it; the
	// caller's profile is never modified.
	Avail profile.Intervals
	// Q is the historical average number of available processors
	// (Section 4.2). If zero, it defaults to P.
	Q int
}

// validate checks the environment and returns the effective q.
func (e *Env) validate() (int, error) {
	if e.P < 1 {
		return 0, fmt.Errorf("core: cluster size %d < 1", e.P)
	}
	if e.Avail == nil {
		return 0, fmt.Errorf("core: nil availability profile")
	}
	if e.Avail.Capacity() != e.P {
		return 0, fmt.Errorf("core: profile capacity %d != cluster size %d", e.Avail.Capacity(), e.P)
	}
	if e.Avail.Origin() > e.Now {
		return 0, fmt.Errorf("core: profile origin %d after now %d", e.Avail.Origin(), e.Now)
	}
	q := e.Q
	if q == 0 {
		q = e.P
	}
	if q < 1 || q > e.P {
		return 0, fmt.Errorf("core: historical average %d outside [1,%d]", q, e.P)
	}
	return q, nil
}

// Placement is one task's reservation in a schedule.
type Placement struct {
	Procs int
	Start model.Time
	End   model.Time
}

// Schedule is a complete application schedule: one reservation per
// task, indexed by task ID.
type Schedule struct {
	Now   model.Time
	Tasks []Placement
}

// Completion returns the latest task end time.
func (s *Schedule) Completion() model.Time {
	c := s.Now
	for _, pl := range s.Tasks {
		if pl.End > c {
			c = pl.End
		}
	}
	return c
}

// Turnaround returns Completion() - Now, the RESSCHED objective.
func (s *Schedule) Turnaround() model.Duration { return s.Completion() - s.Now }

// ProcSeconds returns the total processor-seconds reserved.
func (s *Schedule) ProcSeconds() model.Duration {
	var sum model.Duration
	for _, pl := range s.Tasks {
		sum += model.Duration(pl.Procs) * (pl.End - pl.Start)
	}
	return sum
}

// CPUHours returns the schedule's resource consumption in CPU-hours,
// the unit of Tables 4-7.
func (s *Schedule) CPUHours() float64 { return model.CPUHours(s.ProcSeconds()) }

// Scheduler runs the paper's algorithms for one application DAG. It
// caches the CPA allocation per cluster size and the RESSCHEDDL plan
// (backward order, CPA reference starts, candidate probes) per cluster
// shape, so scheduling the same application against many reservation
// instances — the shape of every experiment in the paper — and every
// probe of a tightest-deadline search recompute neither. It also keeps
// its last CPA allocation-phase run, so the allocation for the machine
// size P continues the one for the historical average q instead of
// starting over.
// A Scheduler is not safe for concurrent use.
type Scheduler struct {
	g          *dag.Graph
	stop       cpa.StopRule
	allocCache map[int][]int
	run        *cpa.Run            // the run behind the latest fresh or extended allocation
	plans      map[planKey]*dlPlan // created on the first deadline call

	// Scratch buffers reused across calls, keeping the per-task
	// candidate scans and the per-call working profile allocation-free.
	// scratchAvail is the clone-into target for the availability
	// profile each scheduling call mutates; it is safe to reuse because
	// every probe sequence against it is, per call, strictly sequential.
	scratchReqs   []profile.FitRequest
	scratchStarts []model.Time
	scratchOK     []bool
	scratchAvail  profile.Intervals
}

// NewScheduler returns a Scheduler for the given application using the
// default (stringent) CPA stopping rule.
func NewScheduler(g *dag.Graph) (*Scheduler, error) {
	return NewSchedulerRule(g, cpa.StopStringent)
}

// NewSchedulerRule selects the CPA stopping rule explicitly (used by
// the ablation benchmarks).
func NewSchedulerRule(g *dag.Graph, rule cpa.StopRule) (*Scheduler, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Scheduler{g: g, stop: rule, allocCache: make(map[int][]int)}, nil
}

// Graph returns the application DAG the scheduler was built for.
func (s *Scheduler) Graph() *dag.Graph { return s.g }

// cpaAlloc returns (and caches) the CPA allocation for a cluster of
// n processors. An uncached n larger than the kept run's size extends
// that run when cpa.Run.Extend proves the result equal to a fresh run;
// otherwise a fresh run computes it and becomes the kept one. Cached
// vectors are never written again.
func (s *Scheduler) cpaAlloc(n int) ([]int, error) {
	if a, ok := s.allocCache[n]; ok {
		return a, nil
	}
	if s.run == nil || !s.run.Extend(n) {
		r, err := cpa.NewRun(s.g, n, s.stop)
		if err != nil {
			return nil, err
		}
		s.run = r
	}
	a := s.run.Alloc()
	s.allocCache[n] = a
	return a, nil
}

// blExec returns the execution-time vector used for bottom-level
// computation under the given method.
func (s *Scheduler) blExec(m BLMethod, p, q int) ([]model.Duration, error) {
	switch m {
	case BL1:
		return s.g.ExecTimes(s.g.UniformAlloc(1))
	case BLAll:
		return s.g.ExecTimes(s.g.UniformAlloc(p))
	case BLCPA:
		alloc, err := s.cpaAlloc(p)
		if err != nil {
			return nil, err
		}
		return s.g.ExecTimes(alloc)
	case BLCPAR:
		alloc, err := s.cpaAlloc(q)
		if err != nil {
			return nil, err
		}
		return s.g.ExecTimes(alloc)
	default:
		return nil, fmt.Errorf("core: unknown bottom-level method %v", m)
	}
}

// workingAvail copies the environment's availability profile into the
// scheduler's scratch profile, the mutable working copy a scheduling
// call commits task reservations into. The caller's profile is never
// modified; reusing the scratch avoids a full Clone per call. The copy
// stays on the environment's backend, so a tree-backed Env keeps its
// O(log n) probes through the whole computation.
func (s *Scheduler) workingAvail(env *Env) profile.Intervals {
	s.scratchAvail = profile.CopyIntervals(env.Avail, s.scratchAvail)
	return s.scratchAvail
}

// bounds returns the per-task allocation bounds under the given
// bounding method.
func (s *Scheduler) bounds(m BDMethod, p, q int) ([]int, error) {
	switch m {
	case BDAll:
		return s.g.UniformAlloc(p), nil
	case BDHalf:
		h := p / 2
		if h < 1 {
			h = 1
		}
		return s.g.UniformAlloc(h), nil
	case BDCPA:
		return s.cpaAlloc(p)
	case BDCPAR:
		return s.cpaAlloc(q)
	default:
		return nil, fmt.Errorf("core: unknown bounding method %v", m)
	}
}
