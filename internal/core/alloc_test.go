package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"resched/internal/cpa"
	"resched/internal/dag"
	"resched/internal/daggen"
)

// ruleScheduler builds a Scheduler with the given stopping rule or
// fails the test.
func ruleScheduler(t *testing.T, g *dag.Graph, rule cpa.StopRule) *Scheduler {
	t.Helper()
	s, err := NewSchedulerRule(g, rule)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustAlloc is cpaAlloc that fails the test on error.
func mustAlloc(t *testing.T, s *Scheduler, n int) []int {
	t.Helper()
	a, err := s.cpaAlloc(n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestCPAAllocOrders asks one Scheduler for the CPA allocations of
// several cluster sizes in every order the algorithms do: q then P
// (the extension path), P then q (a fresh run replaces the kept one),
// a third size above P (an extended run extended again), and q = P (a
// cache hit). Every vector must equal a fresh Scheduler's, and none
// handed out earlier may change.
func TestCPAAllocOrders(t *testing.T) {
	grid := daggen.ParamGrid()
	extended := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := daggen.MustGenerate(grid[int(seed)%len(grid)], rng)
		p := 32 + rng.Intn(1100)
		q := 1 + rng.Intn(p-1)
		for _, rule := range []cpa.StopRule{cpa.StopStringent, cpa.StopClassic} {
			label := fmt.Sprintf("seed %d %v q=%d P=%d", seed, rule, q, p)
			fresh := func(n int) []int { return mustAlloc(t, ruleScheduler(t, g, rule), n) }

			s := ruleScheduler(t, g, rule)
			aq := mustAlloc(t, s, q)
			keptQ, run := slices.Clone(aq), s.run
			ap := mustAlloc(t, s, p)
			if s.run == run {
				extended++
			}
			keptP := slices.Clone(ap)
			above := mustAlloc(t, s, p+57)
			if !slices.Equal(aq, keptQ) || !slices.Equal(ap, keptP) {
				t.Fatalf("%s: a later allocation rewrote an earlier one", label)
			}
			for _, c := range []struct {
				n   int
				got []int
			}{{q, aq}, {p, ap}, {p + 57, above}} {
				if want := fresh(c.n); !slices.Equal(c.got, want) {
					t.Fatalf("%s: allocation for %d %v, fresh scheduler %v", label, c.n, c.got, want)
				}
			}

			s = ruleScheduler(t, g, rule)
			ap = mustAlloc(t, s, p)
			keptP, run = slices.Clone(ap), s.run
			aq = mustAlloc(t, s, q)
			if s.run == run {
				t.Fatalf("%s: the allocation for q < P reused the run for P", label)
			}
			if !slices.Equal(ap, keptP) {
				t.Fatalf("%s: the allocation for q rewrote the one for P", label)
			}
			if want := fresh(q); !slices.Equal(aq, want) {
				t.Fatalf("%s: P-then-q allocation for q %v, fresh scheduler %v", label, aq, want)
			}

			run = s.run
			if again := mustAlloc(t, s, q); &again[0] != &aq[0] || s.run != run {
				t.Fatalf("%s: asking for q twice did not return the cached vector", label)
			}
		}
	}
	if extended < 60 { // 72 of 80 extend at this writing
		t.Fatalf("only %d of 80 q-then-P orders extended the run", extended)
	}
}

// TestExtendedCPAAllocAllocs pins what the allocation for P costs once
// the one for q is cached: the extended run's copy of its allocation
// vector and nothing else — the second cache-map insert lands in the
// map's existing group. A fresh run (18 allocations on this graph)
// taking the place of the extension would show here.
func TestExtendedCPAAllocAllocs(t *testing.T) {
	g := daggen.MustGenerate(daggen.Default(), rand.New(rand.NewSource(1)))
	const q, p = 193, 1152
	s := mustScheduler(t, g)
	mustAlloc(t, s, q)
	run := s.run
	if mustAlloc(t, s, p); s.run != run {
		t.Fatal("the run for q was not extended to P; the pin below needs a graph on which it is")
	}
	qOnly := testing.AllocsPerRun(10, func() {
		mustAlloc(t, mustScheduler(t, g), q)
	})
	both := testing.AllocsPerRun(10, func() {
		s := mustScheduler(t, g)
		mustAlloc(t, s, q)
		mustAlloc(t, s, p)
	})
	if extra := both - qOnly; extra > 1 {
		t.Fatalf("the extended allocation for P costs %.0f allocations, want 1 (the vector copy)", extra)
	}
}
