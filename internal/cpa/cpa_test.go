package cpa

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"resched/internal/dag"
	"resched/internal/daggen"
	"resched/internal/model"
)

// chain builds t0 -> t1 -> ... -> t{n-1}, all with the given seq/alpha.
func chain(n int, seq model.Duration, alpha float64) *dag.Graph {
	g := dag.New(n)
	for i := 0; i < n; i++ {
		g.AddTask(dag.Task{Seq: seq, Alpha: alpha})
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(i-1, i)
	}
	return g
}

// fork builds one source fanning out to n independent tasks joined by
// one sink.
func fork(n int, seq model.Duration, alpha float64) *dag.Graph {
	g := dag.New(n + 2)
	src := g.AddTask(dag.Task{Seq: seq, Alpha: alpha})
	ids := make([]int, n)
	for i := range ids {
		ids[i] = g.AddTask(dag.Task{Seq: seq, Alpha: alpha})
		g.MustAddEdge(src, ids[i])
	}
	sink := g.AddTask(dag.Task{Seq: seq, Alpha: alpha})
	for _, id := range ids {
		g.MustAddEdge(id, sink)
	}
	return g
}

func TestAllocateChainUsesManyProcs(t *testing.T) {
	// A chain has no task parallelism: every task is on the critical
	// path and T_A is tiny, so CPA should grow allocations well past 1.
	g := chain(5, model.Hour, 0.05)
	alloc, err := Allocate(g, 32, StopClassic)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range alloc {
		if m < 2 {
			t.Fatalf("chain task %d allocated %d procs under classic CPA; want > 1 (alloc %v)", i, m, alloc)
		}
		if m > 32 {
			t.Fatalf("allocation %d exceeds cluster", m)
		}
	}
}

func TestAllocateStringentHonorsEfficiencyCap(t *testing.T) {
	// A chain of poorly-scaling tasks (alpha = 0.5) on a big machine:
	// classic CPA keeps growing allocations, the stringent rule stops
	// each task at its efficiency cap.
	g := chain(5, model.Hour, 0.5)
	cap := allocCap(0.5, 64)
	if cap != 7 {
		t.Fatalf("allocCap(0.5, 64) = %d, want 7 at MinEfficiency 0.25", cap)
	}
	stringent, err := Allocate(g, 64, StopStringent)
	if err != nil {
		t.Fatal(err)
	}
	classic, err := Allocate(g, 64, StopClassic)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stringent {
		if stringent[i] > cap {
			t.Fatalf("stringent alloc %v exceeds efficiency cap %d", stringent, cap)
		}
		if classic[i] <= cap {
			t.Fatalf("classic alloc %v unexpectedly within the cap — test premise broken", classic)
		}
	}
}

func TestAllocCapBounds(t *testing.T) {
	if got := allocCap(0, 32); got != 32 {
		t.Fatalf("alpha=0 cap = %d, want p", got)
	}
	// Fully serial task: (1/0.25 - 1 + 1)/1 = 4. Efficiency 1/m >= 0.25
	// indeed holds up to m = 4.
	if got := allocCap(1, 32); got != 4 {
		t.Fatalf("allocCap(1,32) = %d, want 4", got)
	}
	if got := allocCap(0.9, 2); got < 1 || got > 2 {
		t.Fatalf("cap %d outside [1,p]", got)
	}
}

// Property: stringent allocations always respect per-task efficiency
// caps, so total work is bounded by seqWork/MinEfficiency.
func TestAllocateStringentEfficiencyFloor(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := daggen.Default()
		spec.N = rng.Intn(30) + 5
		g := daggen.MustGenerate(spec, rng)
		p := rng.Intn(60) + 4
		alloc, err := Allocate(g, p, StopStringent)
		if err != nil {
			return false
		}
		for i, m := range alloc {
			if m > allocCap(g.Task(i).Alpha, p) {
				return false
			}
			work := model.Work(g.Task(i).Seq, g.Task(i).Alpha, m)
			// Work on m procs must stay within 1/MinEfficiency of the
			// sequential work (plus rounding slack).
			if float64(work) > float64(g.Task(i).Seq)/MinEfficiency+float64(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := daggen.Default()
		spec.N = rng.Intn(40) + 2
		g := daggen.MustGenerate(spec, rng)
		p := rng.Intn(100) + 1
		alloc, err := Allocate(g, p, StopStringent)
		if err != nil {
			return false
		}
		for _, m := range alloc {
			if m < 1 || m > p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateSingleProcessorCluster(t *testing.T) {
	g := fork(4, model.Hour, 0.1)
	alloc, err := Allocate(g, 1, StopClassic)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range alloc {
		if m != 1 {
			t.Fatalf("p=1 allocation %v", alloc)
		}
	}
}

func TestAllocateErrors(t *testing.T) {
	g := chain(3, model.Hour, 0.1)
	if _, err := Allocate(g, 0, StopClassic); err == nil {
		t.Fatal("p=0 accepted")
	}
	bad := dag.New(2)
	bad.AddTask(dag.Task{Seq: 1})
	bad.AddTask(dag.Task{Seq: 1})
	bad.MustAddEdge(0, 1)
	bad.MustAddEdge(1, 0)
	if _, err := Allocate(bad, 4, StopClassic); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

func TestPriorityOrderRespectsPrecedence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := daggen.Default()
		spec.N = rng.Intn(40) + 2
		spec.Jump = rng.Intn(4) + 1
		g := daggen.MustGenerate(spec, rng)
		exec, _ := g.ExecTimes(g.UniformAlloc(1))
		order, err := PriorityOrder(g, exec)
		if err != nil {
			return false
		}
		pos := make([]int, g.NumTasks())
		for i, t := range order {
			pos[t] = i
		}
		for u := 0; u < g.NumTasks(); u++ {
			for _, v := range g.Successors(u) {
				if pos[u] >= pos[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// validateDedicated checks a dedicated-cluster schedule: precedence,
// capacity, and allocation bounds.
func validateDedicated(t *testing.T, g *dag.Graph, s *Schedule, p int, origin model.Time) {
	t.Helper()
	exec, err := g.ExecTimes(s.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumTasks(); i++ {
		if s.Start[i] < 0 {
			continue
		}
		if s.Start[i] < origin {
			t.Fatalf("task %d starts at %d before origin %d", i, s.Start[i], origin)
		}
		if s.Finish[i] != s.Start[i]+exec[i] {
			t.Fatalf("task %d finish %d != start %d + exec %d", i, s.Finish[i], s.Start[i], exec[i])
		}
		for _, pr := range g.Predecessors(i) {
			if s.Finish[pr] > s.Start[i] {
				t.Fatalf("task %d starts at %d before predecessor %d finishes at %d", i, s.Start[i], pr, s.Finish[pr])
			}
		}
	}
	// Capacity: sweep events.
	type ev struct {
		t     model.Time
		delta int
	}
	var evs []ev
	for i := range s.Start {
		if s.Start[i] < 0 || exec[i] == 0 {
			continue
		}
		evs = append(evs, ev{s.Start[i], s.Alloc[i]}, ev{s.Finish[i], -s.Alloc[i]})
	}
	// Order events by time, releases first.
	for i := 0; i < len(evs); i++ {
		for j := i + 1; j < len(evs); j++ {
			if evs[j].t < evs[i].t || (evs[j].t == evs[i].t && evs[j].delta < evs[i].delta) {
				evs[i], evs[j] = evs[j], evs[i]
			}
		}
	}
	used := 0
	for _, e := range evs {
		used += e.delta
		if used > p {
			t.Fatalf("capacity exceeded: %d > %d at time %d", used, p, e.t)
		}
	}
}

func TestListScheduleChain(t *testing.T) {
	g := chain(4, model.Hour, 0)
	alloc := g.UniformAlloc(2)
	s, err := ListSchedule(g, alloc, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	validateDedicated(t, g, s, 4, 1000)
	// A chain serializes: each task starts when the previous finishes.
	for i := 1; i < 4; i++ {
		if s.Start[i] != s.Finish[i-1] {
			t.Fatalf("chain not tight: start[%d]=%d finish[%d]=%d", i, s.Start[i], i-1, s.Finish[i-1])
		}
	}
	if s.Makespan(1000) != 1000+4*1800 {
		t.Fatalf("makespan = %d", s.Makespan(1000))
	}
}

func TestListScheduleForkParallel(t *testing.T) {
	g := fork(4, model.Hour, 0)
	alloc := g.UniformAlloc(1)
	s, err := ListSchedule(g, alloc, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	validateDedicated(t, g, s, 4, 0)
	// The four branches all fit simultaneously.
	for i := 1; i <= 4; i++ {
		if s.Start[i] != s.Finish[0] {
			t.Fatalf("branch %d start %d, want %d", i, s.Start[i], s.Finish[0])
		}
	}
}

func TestListScheduleClampsAlloc(t *testing.T) {
	g := chain(2, model.Hour, 0)
	alloc := []int{8, 8}
	s, err := ListSchedule(g, alloc, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range s.Alloc {
		if m != 4 {
			t.Fatalf("task %d alloc %d, want clamped to 4", i, m)
		}
	}
	validateDedicated(t, g, s, 4, 0)
}

func TestListScheduleSubset(t *testing.T) {
	g := chain(4, model.Hour, 0)
	include := []bool{true, true, false, false}
	s, err := ListScheduleSubset(g, g.UniformAlloc(1), 2, 500, include)
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[0] < 0 || s.Start[1] < 0 {
		t.Fatal("included tasks not scheduled")
	}
	if s.Start[2] != -1 || s.Start[3] != -1 {
		t.Fatal("excluded tasks scheduled")
	}
	// A subset not closed under predecessors errors.
	if _, err := ListScheduleSubset(g, g.UniformAlloc(1), 2, 0, []bool{false, true, false, false}); err == nil {
		t.Fatal("non-prefix subset accepted")
	}
}

func TestListScheduleErrors(t *testing.T) {
	g := chain(2, model.Hour, 0)
	if _, err := ListSchedule(g, []int{1}, 2, 0); err == nil {
		t.Fatal("short alloc accepted")
	}
	if _, err := ListSchedule(g, []int{1, 0}, 2, 0); err == nil {
		t.Fatal("zero alloc accepted")
	}
	if _, err := ListSchedule(g, g.UniformAlloc(1), 0, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := ListScheduleSubset(g, g.UniformAlloc(1), 2, 0, []bool{true}); err == nil {
		t.Fatal("short include vector accepted")
	}
}

// Property: list schedules over random DAGs are always valid, and the
// makespan is at least the critical path under the same allocations.
func TestListScheduleRandomValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := daggen.Default()
		spec.N = rng.Intn(40) + 2
		spec.Jump = rng.Intn(4) + 1
		g := daggen.MustGenerate(spec, rng)
		p := rng.Intn(30) + 1
		alloc, err := Allocate(g, p, StopStringent)
		if err != nil {
			return false
		}
		s, err := ListSchedule(g, alloc, p, 0)
		if err != nil {
			return false
		}
		exec, _ := g.ExecTimes(s.Alloc)
		cp, _ := g.CriticalPathLength(exec)
		if s.Makespan(0) < cp {
			return false
		}
		// Also run the full validator via a sub-test trick: replicate
		// precedence check here.
		for u := 0; u < g.NumTasks(); u++ {
			for _, v := range g.Successors(u) {
				if s.Finish[u] > s.Start[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRunLayout pins Run to the 416-byte size class it had as the
// loop's private state: every request allocates one, and the cluster
// size Extend needs must not push it into the next class.
func TestRunLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Run{}); sz > 416 {
		t.Fatalf("Run is %d bytes, over the 416-byte size class", sz)
	}
}

func TestStopRuleString(t *testing.T) {
	if StopClassic.String() != "classic" || StopStringent.String() != "stringent" {
		t.Fatal("StopRule.String broken")
	}
	if StopRule(9).String() == "" {
		t.Fatal("unknown StopRule should still stringify")
	}
}

// TestRefineAllocationFree pins the grant loop at zero allocations: a
// run's allocation count is its set-up, whatever the number of grants.
// A 64-processor run grants many more processors than a 2-processor
// run on the same DAG, so any per-grant allocation shows as a gap.
func TestRefineAllocationFree(t *testing.T) {
	spec := daggen.Default()
	spec.N = 40
	g := daggen.MustGenerate(spec, rand.New(rand.NewSource(7)))
	allocs := func(p int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := NewRun(g, p, StopClassic); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2), allocs(64)
	if large != small {
		t.Fatalf("NewRun makes %.0f allocations for p=64 and %.0f for p=2; the grant loop allocates", large, small)
	}
}
