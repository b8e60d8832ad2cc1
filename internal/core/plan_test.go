package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"resched/internal/cpa"
	"resched/internal/dag"
	"resched/internal/daggen"
	"resched/internal/model"
)

// withZeroWork copies g, zeroing the sequential time of about one task
// in four: zero-duration tasks tie bottom levels with their successors.
func withZeroWork(g *dag.Graph, rng *rand.Rand) *dag.Graph {
	h := dag.New(g.NumTasks())
	for i := 0; i < g.NumTasks(); i++ {
		task := g.Task(i)
		if rng.Intn(4) == 0 {
			task.Seq = 0
		}
		h.AddTask(task)
	}
	for i := 0; i < g.NumTasks(); i++ {
		for _, s := range g.Successors(i) {
			h.MustAddEdge(i, s)
		}
	}
	return h
}

// randomReverseTopo returns a random order whose every suffix is closed
// under predecessors: the reverse of a random topological order.
func randomReverseTopo(g *dag.Graph, rng *rand.Rand) []int {
	indeg := make([]int, g.NumTasks())
	var ready []int
	for i := range indeg {
		indeg[i] = len(g.Predecessors(i))
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, g.NumTasks())
	for k := len(order) - 1; k >= 0; k-- {
		j := rng.Intn(len(ready))
		t := ready[j]
		ready = append(ready[:j], ready[j+1:]...)
		order[k] = t
		for _, s := range g.Successors(t) {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}

// TestReferenceStartsMatchSubsetSchedules checks the one-pass reference
// starts against one cpa.ListScheduleSubset of every suffix of the
// backward order, from a non-zero origin, on DAGs with zero-work tasks
// and allocations above the reference cluster (which must be clamped).
// Random reverse-topological orders make the pass restart as well as
// continue; the scheduler's own backward order is covered too.
func TestReferenceStartsMatchSubsetSchedules(t *testing.T) {
	suffixes := 0
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := daggen.Default()
		spec.N = 5 + rng.Intn(40)
		spec.Width = float64(rng.Intn(9)+1) / 10
		g := withZeroWork(daggen.MustGenerate(spec, rng), rng)
		s := mustScheduler(t, g)
		p := 4 + rng.Intn(60)
		q := 1 + rng.Intn(p)
		origin := model.Time(rng.Int63n(int64(model.Week)))
		alloc := make([]int, g.NumTasks())
		for i := range alloc {
			alloc[i] = 1 + rng.Intn(2*q) // up to twice qRef = q
		}
		backward, err := naiveBackwardOrder(s, p, q)
		if err != nil {
			t.Fatal(err)
		}
		for k, order := range [][]int{backward, randomReverseTopo(g, rng)} {
			ref, err := referenceStarts(context.Background(), g, order, alloc, q)
			if err != nil {
				t.Fatalf("seed %d order %d: %v", seed, k, err)
			}
			include := make([]bool, g.NumTasks())
			for i := len(order) - 1; i >= 0; i-- {
				include[order[i]] = true
				want, err := cpa.ListScheduleSubset(g, alloc, q, origin, include)
				if err != nil {
					t.Fatal(err)
				}
				if got := origin + ref[order[i]]; got != want.Start[order[i]] {
					t.Fatalf("seed %d order %d suffix %d: task %d reference start %d, ListScheduleSubset %d",
						seed, k, i, order[i], got, want.Start[order[i]])
				}
				suffixes++
			}
		}
	}
	if suffixes < 400 {
		t.Fatalf("only %d suffixes compared", suffixes)
	}
}

// TestReferenceStartsRejectsOpenSuffix keeps ListScheduleSubset's
// excluded-predecessor error: an order whose suffix holds a task but
// not its predecessor has no reference schedule.
func TestReferenceStartsRejectsOpenSuffix(t *testing.T) {
	g := chainGraph(3, model.Hour, 0.1)
	_, err := referenceStarts(context.Background(), g, []int{0, 1, 2}, g.UniformAlloc(1), 2)
	if err == nil || !strings.Contains(err.Error(), "predecessor") {
		t.Fatalf("forward order accepted as a backward one: %v", err)
	}
}

// naiveTightest is TightestDeadlineGranularity over the naive
// schedulers: the same floor, doubling and bisection, every probe a
// naiveDeadline.
func naiveTightest(s *Scheduler, env Env, algo DLAlgorithm) (model.Time, *Schedule, error) {
	exec, err := s.g.ExecTimes(s.g.UniformAlloc(env.P))
	if err != nil {
		return 0, nil, err
	}
	cp, err := s.g.CriticalPathLength(exec)
	if err != nil {
		return 0, nil, err
	}
	lo := env.Now + cp
	fwd, err := naiveTurnaround(s, env, BLCPAR, BDCPAR)
	if err != nil {
		return 0, nil, err
	}
	hi := max(fwd.Completion(), lo)
	best, err := naiveDeadline(s, env, algo, hi)
	for n := 0; err != nil && n < maxDoublings; n++ {
		hi = env.Now + 2*max(hi-env.Now, DefaultGranularity)
		best, err = naiveDeadline(s, env, algo, hi)
	}
	if err != nil {
		return 0, nil, err
	}
	lo = min(lo, hi)
	for hi-lo > DefaultGranularity {
		mid := lo + (hi-lo)/2
		if sched, err := naiveDeadline(s, env, algo, mid); err == nil {
			hi, best = mid, sched
		} else {
			lo = mid
		}
	}
	return hi, best, nil
}

// TestTightestMatchesNaive runs the whole tightest-deadline search —
// every probe reading the cached plan — against the naive search, for
// every deadline algorithm: K* and the schedule must be equal.
func TestTightestMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := daggen.Default()
		spec.N = 10 + rng.Intn(15)
		g := daggen.MustGenerate(spec, rng)
		s := mustScheduler(t, g)
		env := randomEnv(rng, 32, model.Time(rng.Int63n(int64(model.Day))))
		for _, algo := range AllDL {
			label := fmt.Sprintf("seed %d %v", seed, algo)
			k, got, err := s.TightestDeadline(env, algo)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			wantK, want, err := naiveTightest(s, env, algo)
			if err != nil {
				t.Fatalf("%s naive: %v", label, err)
			}
			if k != wantK {
				t.Fatalf("%s: K* %d, naive %d", label, k, wantK)
			}
			samePlacements(t, label, got, want)
		}
	}
}

// TestSchedulerReuseAcrossEnvs drives one Scheduler through envs that
// differ in Now, Avail, Q and P — shapes repeat with a new Now, so a
// cached plan is reused at another origin — interleaving DL_RC_CPA and
// DL_RC_CPAR so both reference cluster sizes are live. Every answer must
// equal a fresh Scheduler's, placement for placement.
func TestSchedulerReuseAcrossEnvs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spec := daggen.Default()
	spec.N = 30
	g := daggen.MustGenerate(spec, rng)
	shared := mustScheduler(t, g)
	shapes := [][2]int{{32, 12}, {48, 12}, {32, 20}, {32, 32}}
	for e := 0; e < 12; e++ {
		shape := shapes[e%len(shapes)]
		env := randomEnv(rng, shape[0], model.Time(rng.Int63n(int64(model.Week))))
		env.Q = shape[1]
		algos := []DLAlgorithm{DLRCCPA, DLRCCPAR, DLRCCPARLambda}
		if e%2 == 1 {
			algos = []DLAlgorithm{DLRCCPAR, DLRCCPA, DLBDCPA}
		}
		for _, algo := range algos {
			label := fmt.Sprintf("env %d (P=%d Q=%d now=%d) %v", e, env.P, env.Q, env.Now, algo)
			k, got, err := shared.TightestDeadline(env, algo)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			wantK, want, err := mustScheduler(t, g).TightestDeadline(env, algo)
			if err != nil {
				t.Fatalf("%s fresh: %v", label, err)
			}
			if k != wantK {
				t.Fatalf("%s: K* %d, fresh scheduler %d", label, k, wantK)
			}
			samePlacements(t, label, got, want)
		}
	}
	if len(shared.plans) < 6 {
		t.Fatalf("%d cached plans; the envs should have exercised at least 6 shapes", len(shared.plans))
	}
}

// TestSchedulerLayout pins Scheduler to the 144-byte size class: every
// request and every experiment instance allocates one.
func TestSchedulerLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Scheduler{}); sz > 144 {
		t.Fatalf("Scheduler is %d bytes, over the 144-byte size class", sz)
	}
}

// TestWarmDeadlineProbeAllocs pins what a deadline probe allocates once
// its plan is built: the returned schedule and nothing per task. Work
// that does not depend on K (orders, reference schedules, probe tables)
// moved back into the probe would show here.
func TestWarmDeadlineProbeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spec := daggen.Default()
	spec.N = 60
	g := daggen.MustGenerate(spec, rng)
	s := mustScheduler(t, g)
	env := randomEnv(rng, 64, 0)
	for _, algo := range []DLAlgorithm{DLRCCPAR, DLBDCPAR, DLBDAll} {
		k, _, err := s.TightestDeadline(env, algo) // warms the plan and scratch
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.Deadline(env, algo, k); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("%v: warm probe allocates %.0f times, want 2 (the schedule and its placements)", algo, allocs)
		}
	}
}
