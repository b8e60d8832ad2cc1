package core

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"resched/internal/model"
	"resched/internal/profile"
)

func TestDeadlineAggressiveSchedulesLate(t *testing.T) {
	// A single fully-serial one-hour task with a generous deadline:
	// the aggressive algorithm must start it as late as possible.
	g := chainGraph(1, model.Hour, 1)
	s := mustScheduler(t, g)
	env := emptyEnv(4, 0)
	deadline := model.Time(10 * model.Hour)
	sched, err := s.Deadline(env, DLBDAll, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyDeadline(env, sched, deadline); err != nil {
		t.Fatal(err)
	}
	if sched.Tasks[0].Start != 9*model.Hour {
		t.Fatalf("start = %d, want %d (latest possible)", sched.Tasks[0].Start, 9*model.Hour)
	}
}

func TestDeadlineInfeasible(t *testing.T) {
	g := chainGraph(3, model.Hour, 1) // serial chain needs 3 hours no matter what
	s := mustScheduler(t, g)
	env := emptyEnv(4, 0)
	for _, algo := range AllDL {
		_, err := s.Deadline(env, algo, 2*model.Hour)
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%v: want ErrInfeasible, got %v", algo, err)
		}
	}
	// Deadline before now.
	if _, err := s.Deadline(Env{P: 4, Now: 100, Avail: profile.New(4, 0)}, DLBDCPA, 50); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("deadline before now: %v", err)
	}
}

func TestDeadlineExactlyFeasible(t *testing.T) {
	g := chainGraph(2, model.Hour, 1)
	s := mustScheduler(t, g)
	env := emptyEnv(2, 0)
	sched, err := s.Deadline(env, DLBDCPA, 2*model.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyDeadline(env, sched, 2*model.Hour); err != nil {
		t.Fatal(err)
	}
	// Zero slack: tasks must be back to back.
	if sched.Tasks[0].Start != 0 || sched.Tasks[1].End != 2*model.Hour {
		t.Fatalf("placements %+v not tight", sched.Tasks)
	}
}

func TestDeadlineRespectsCompetingReservations(t *testing.T) {
	// Machine fully reserved during [1h, 9h); a serial 1h task with a
	// 10h deadline must run in [9h, 10h).
	g := chainGraph(1, model.Hour, 1)
	s := mustScheduler(t, g)
	env := busyEnv(t, 4, 0, []profile.Reservation{{Start: model.Hour, End: 9 * model.Hour, Procs: 4}})
	sched, err := s.Deadline(env, DLBDCPA, 10*model.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyDeadline(env, sched, 10*model.Hour); err != nil {
		t.Fatal(err)
	}
	if sched.Tasks[0].Start != 9*model.Hour {
		t.Fatalf("start = %d, want %d", sched.Tasks[0].Start, 9*model.Hour)
	}
	// With a 5h deadline the only hole is [0, 1h).
	sched, err = s.Deadline(env, DLBDCPA, 5*model.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Tasks[0].Start != 0 {
		t.Fatalf("start = %d, want 0 (before the competing block)", sched.Tasks[0].Start)
	}
}

func TestDeadlineRCUsesFewerResourcesWhenLoose(t *testing.T) {
	// Parallel-friendly chain with a loose deadline: the resource
	// conservative algorithm must consume no more CPU-hours than the
	// aggressive one.
	g := chainGraph(4, 2*model.Hour, 0.05)
	s := mustScheduler(t, g)
	env := emptyEnv(16, 0)
	env.Q = 16
	deadline := model.Time(48 * model.Hour)

	agg, err := s.Deadline(env, DLBDCPA, deadline)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := s.Deadline(env, DLRCCPAR, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyDeadline(env, rc, deadline); err != nil {
		t.Fatal(err)
	}
	if rc.CPUHours() > agg.CPUHours() {
		t.Fatalf("RC used %.2f CPU-hours, aggressive %.2f; RC must be no worse on a loose deadline",
			rc.CPUHours(), agg.CPUHours())
	}
	// With 48 hours of slack for 8 hours of serial-chain work, the RC
	// candidate starts sit far past the CPA reference for every task:
	// each gets a single processor (Section 5.2.2's design goal).
	for i, pl := range rc.Tasks {
		if pl.Procs != 1 {
			t.Fatalf("task %d allocated %d procs despite 48h of slack", i, pl.Procs)
		}
	}
}

// The RC pick schedules each task at the latest feasible start of its
// cheapest passing allocation (DESIGN.md Section 6b): on an empty
// machine with a loose deadline, the sink runs on one processor ending
// exactly at the deadline.
func TestDeadlineRCLatestFitSemantics(t *testing.T) {
	g := chainGraph(2, model.Hour, 1)
	s := mustScheduler(t, g)
	env := emptyEnv(8, 0)
	deadline := model.Time(24 * model.Hour)
	sched, err := s.Deadline(env, DLRCCPAR, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyDeadline(env, sched, deadline); err != nil {
		t.Fatal(err)
	}
	sink := sched.Tasks[1]
	if sink.Procs != 1 || sink.End != deadline {
		t.Fatalf("sink = %+v, want 1 proc ending at the deadline", sink)
	}
	head := sched.Tasks[0]
	if head.Procs != 1 || head.End != sink.Start {
		t.Fatalf("head = %+v, want 1 proc back-to-back with the sink at %d", head, sink.Start)
	}
}

func TestDeadlineLambdaFallsBackToAggressive(t *testing.T) {
	// Tight deadline: plain RC (lambda 0) may fail, but the lambda
	// sweep must find the aggressive end and succeed whenever the
	// aggressive algorithm does.
	g := chainGraph(3, model.Hour, 0.1)
	s := mustScheduler(t, g)
	env := emptyEnv(8, 0)
	env.Q = 2 // pessimistic historical estimate forces a conservative reference
	tight, _, err := s.TightestDeadline(env, DLBDCPA)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := s.Deadline(env, DLRCCPARLambda, tight)
	if err != nil {
		t.Fatalf("lambda sweep failed at the aggressive algorithm's tightest deadline: %v", err)
	}
	if err := s.VerifyDeadline(env, sched, tight); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineUnknownAlgorithm(t *testing.T) {
	g := chainGraph(1, model.Hour, 0)
	s := mustScheduler(t, g)
	if _, err := s.Deadline(emptyEnv(2, 0), DLAlgorithm(99), model.Hour); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// deadlineAggressive serves only the DL_BD algorithms. Handed any other
// one, it must fail loudly instead of running with some bound: that
// silent fall-through is the bug exhaustive mode switches exist for.
func TestDeadlineAggressiveRejectsOtherAlgorithms(t *testing.T) {
	g := chainGraph(2, model.Hour, 0.2)
	s := mustScheduler(t, g)
	env := emptyEnv(4, 0)
	for _, algo := range []DLAlgorithm{DLRCCPA, DLRCCPAR, DLRCCPARLambda, DLRCBDCPARLambda, DLAlgorithm(99)} {
		if _, err := s.deadlineAggressive(context.Background(), env, 4, algo, model.Day); err == nil {
			t.Errorf("deadlineAggressive accepted %v", algo)
		}
	}
}

// Property: all deadline algorithms produce schedules that verify and
// meet the deadline, across random instances with a deadline set to
// twice the forward schedule's turnaround.
func TestDeadlinePropertyValid(t *testing.T) {
	f := func(seed int64) bool {
		g, env, _ := randomInstance(seed)
		s, err := NewScheduler(g)
		if err != nil {
			return false
		}
		fwd, err := s.Turnaround(env, BLCPAR, BDCPAR)
		if err != nil {
			return false
		}
		deadline := env.Now + 2*fwd.Turnaround()
		for _, algo := range AllDL {
			sched, err := s.Deadline(env, algo, deadline)
			if errors.Is(err, ErrInfeasible) {
				continue // allowed: heuristics may fail on tight instances
			}
			if err != nil {
				return false
			}
			if err := s.VerifyDeadline(env, sched, deadline); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// The paper's headline deadline result is statistical, not
// per-instance: at loose deadlines the resource-conservative hybrid
// consumes far fewer CPU-hours than the aggressive algorithm *on
// average* (Tables 6 and 7). Individual instances can go the other way
// when RC's unbounded fallback fires, so this test aggregates over a
// batch of random instances.
func TestDeadlineRCSavesCPUHoursOnAverage(t *testing.T) {
	var aggTotal, rcTotal float64
	compared := 0
	for seed := int64(0); seed < 25; seed++ {
		g, env, _ := randomInstance(seed)
		s := mustScheduler(t, g)
		fwd, err := s.Turnaround(env, BLCPAR, BDCPAR)
		if err != nil {
			t.Fatal(err)
		}
		deadline := env.Now + 4*fwd.Turnaround()
		agg, errA := s.Deadline(env, DLBDCPA, deadline)
		rc, errR := s.Deadline(env, DLRCCPARLambda, deadline)
		if errA != nil || errR != nil {
			continue
		}
		aggTotal += agg.CPUHours()
		rcTotal += rc.CPUHours()
		compared++
	}
	if compared < 10 {
		t.Fatalf("only %d comparable instances", compared)
	}
	if rcTotal > aggTotal {
		t.Fatalf("RC-lambda used %.1f CPU-hours over %d instances, aggressive %.1f; RC must save on average",
			rcTotal, compared, aggTotal)
	}
}

func TestTightestDeadlineBracketsForwardSchedule(t *testing.T) {
	g, env, _ := randomInstance(33)
	s := mustScheduler(t, g)
	exec, err := g.ExecTimes(g.UniformAlloc(env.P))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := g.CriticalPathLength(exec)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []DLAlgorithm{DLBDCPA, DLBDCPAR, DLRCCPARLambda} {
		k, sched, err := s.TightestDeadline(env, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if err := s.VerifyDeadline(env, sched, k); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if k < env.Now+cp {
			t.Fatalf("%v: tightest deadline %d beats the critical-path bound %d", algo, k, env.Now+cp)
		}
	}
}

func TestTightestDeadlineGranularity(t *testing.T) {
	g := chainGraph(2, model.Hour, 1)
	s := mustScheduler(t, g)
	env := emptyEnv(4, 0)
	k, _, err := s.TightestDeadlineGranularity(context.Background(), env, DLBDCPA, model.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The serial chain needs exactly 2 hours.
	if k != 2*model.Hour {
		t.Fatalf("tightest deadline = %d, want %d", k, 2*model.Hour)
	}
	// Default granularity must land within a minute of the true value.
	k, _, err = s.TightestDeadline(env, DLBDCPA)
	if err != nil {
		t.Fatal(err)
	}
	if k < 2*model.Hour || k > 2*model.Hour+model.Minute {
		t.Fatalf("tightest deadline = %d, want within a minute above %d", k, 2*model.Hour)
	}
}

func TestTightestDeadlineEnvValidation(t *testing.T) {
	g := chainGraph(1, model.Hour, 0)
	s := mustScheduler(t, g)
	if _, _, err := s.TightestDeadline(Env{P: 0}, DLBDCPA); err == nil {
		t.Fatal("bad env accepted")
	}
}

// The RC pick of Section 5.2.2 takes, among the allocations whose
// latest start is at or after the threshold, the earliest-starting
// one, and on a tie the one with fewer processors. Here a perfectly
// parallel 12h task on 4 processors has a 20h deadline and only one
// processor free during [14h, 20h): on one processor it starts at 8h,
// on two it must end by 14h and so also starts at 8h, and on three or
// four it starts later. The pick is one processor at 8h.
func TestDeadlineRCTieTakesFewerProcessors(t *testing.T) {
	g := chainGraph(1, 12*model.Hour, 0)
	s := mustScheduler(t, g)
	env := busyEnv(t, 4, 0, []profile.Reservation{{Start: 14 * model.Hour, End: 20 * model.Hour, Procs: 3}})
	deadline := model.Time(20 * model.Hour)
	if s1, _ := env.Avail.LatestFit(1, 12*model.Hour, 0, deadline); s1 != 8*model.Hour {
		t.Fatalf("one processor starts at %d, want %d", s1, 8*model.Hour)
	}
	if s2, _ := env.Avail.LatestFit(2, 6*model.Hour, 0, deadline); s2 != 8*model.Hour {
		t.Fatalf("two processors start at %d, want %d", s2, 8*model.Hour)
	}
	sched, err := s.Deadline(env, DLRCCPA, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Tasks[0]; got.Procs != 1 || got.Start != 8*model.Hour {
		t.Fatalf("RC pick = %d procs at %d, want 1 proc at %d (fewest processors on a tied start)", got.Procs, got.Start, 8*model.Hour)
	}
}

// An allocation whose latest start equals the RC threshold qualifies
// (Section 5.2.2; DESIGN §6b's reading (b)). In a chain of two
// perfectly parallel 12h tasks on 4 processors, the CPA reference runs
// both on 4 processors, so the sink's reference start is 3h. With a
// 15h deadline the sink's one-processor latest start is exactly 3h:
// it qualifies, and as the earliest qualifying start it is the pick.
func TestDeadlineRCThresholdInclusive(t *testing.T) {
	g := chainGraph(2, 12*model.Hour, 0)
	s := mustScheduler(t, g)
	env := emptyEnv(4, 0)
	deadline := model.Time(15 * model.Hour)
	sched, err := s.Deadline(env, DLRCCPA, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyDeadline(env, sched, deadline); err != nil {
		t.Fatal(err)
	}
	if got := sched.Tasks[1]; got.Procs != 1 || got.Start != 3*model.Hour {
		t.Fatalf("sink = %d procs at %d, want 1 proc at the threshold %d", got.Procs, got.Start, 3*model.Hour)
	}
}

// The aggressive pick of Section 5.2.1 takes the latest start, and on
// a tie fewer processors. A perfectly parallel 12h task on 4
// processors with a 20h deadline finds two free processors during
// [8h, 14h) and one during [14h, 20h): one processor and two
// processors both start at 8h, three and four only earlier.
func TestDeadlineAggressiveTieTakesFewerProcessors(t *testing.T) {
	g := chainGraph(1, 12*model.Hour, 0)
	s := mustScheduler(t, g)
	env := busyEnv(t, 4, 0, []profile.Reservation{
		{Start: 8 * model.Hour, End: 14 * model.Hour, Procs: 2},
		{Start: 14 * model.Hour, End: 20 * model.Hour, Procs: 3},
	})
	deadline := model.Time(20 * model.Hour)
	for _, algo := range []DLAlgorithm{DLBDAll, DLBDCPA} {
		sched, err := s.Deadline(env, algo, deadline)
		if err != nil {
			t.Fatal(err)
		}
		if got := sched.Tasks[0]; got.Procs != 1 || got.Start != 8*model.Hour {
			t.Fatalf("%v pick = %d procs at %d, want 1 proc at %d (fewest processors on a tied start)", algo, got.Procs, got.Start, 8*model.Hour)
		}
	}
}
