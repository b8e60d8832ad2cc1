package cpa

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"resched/internal/dag"
	"resched/internal/daggen"
	"resched/internal/model"
)

// TestAllocateMatchesReference is the differential guarantee behind
// the incremental allocation phase: over the paper's full Table 1
// parameter grid (40 specs x 3 seeds x 2 cluster sizes x both
// stopping rules = 480 cases), Allocate must produce allocation
// vectors identical to the retained naive implementation. Identity —
// not approximate agreement — is what keeps the Tables 4-10
// reproductions bit-for-bit stable across this optimization.
func TestAllocateMatchesReference(t *testing.T) {
	cases := 0
	for _, spec := range daggen.ParamGrid() {
		for seed := int64(1); seed <= 3; seed++ {
			g := daggen.MustGenerate(spec, rand.New(rand.NewSource(seed)))
			for _, p := range []int{16, 193} {
				for _, rule := range []StopRule{StopStringent, StopClassic} {
					got, err := Allocate(g, p, rule)
					if err != nil {
						t.Fatalf("Allocate(n=%d, p=%d, %v): %v", spec.N, p, rule, err)
					}
					want, err := referenceAllocate(g, p, rule)
					if err != nil {
						t.Fatalf("referenceAllocate(n=%d, p=%d, %v): %v", spec.N, p, rule, err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("n=%d width=%.1f seed=%d p=%d rule=%v: task %d allocated %d, reference %d",
								spec.N, spec.Width, seed, p, rule, i, got[i], want[i])
						}
					}
					cases++
				}
			}
		}
	}
	if cases < 200 {
		t.Fatalf("only %d differential cases; the corpus should cover at least 200", cases)
	}
}

// runState is a copy of the parts of a run that Extend may write.
type runState struct {
	p                  int
	pending            int32
	area               float64
	alloc, caps        []int
	exec, bl, tl, gain []float64
	maxSucc            []float64
}

func snapshotRun(r *Run) runState {
	return runState{
		p: r.p, area: r.area, pending: r.pending,
		alloc: slices.Clone(r.alloc), caps: slices.Clone(r.caps),
		exec: slices.Clone(r.exec), bl: slices.Clone(r.bl), tl: slices.Clone(r.tl),
		gain: slices.Clone(r.gain), maxSucc: slices.Clone(r.maxSucc),
	}
}

func (a runState) equal(b runState) bool {
	return a.p == b.p && a.area == b.area && a.pending == b.pending &&
		slices.Equal(a.alloc, b.alloc) && slices.Equal(a.caps, b.caps) &&
		slices.Equal(a.exec, b.exec) && slices.Equal(a.bl, b.bl) && slices.Equal(a.tl, b.tl) &&
		slices.Equal(a.gain, b.gain) && slices.Equal(a.maxSucc, b.maxSucc)
}

// checkExtend runs g for q, asks the run to extend to p, and checks
// either outcome: an extended run must equal Allocate and the naive
// reference for p and must not have touched the vector handed out for
// q; a refused one must be exactly the run it was, and a fresh run for
// p must still match the reference. It reports whether Extend took.
func checkExtend(t *testing.T, label string, g *dag.Graph, q, p int, rule StopRule) bool {
	t.Helper()
	run, err := NewRun(g, q, rule)
	if err != nil {
		t.Fatalf("%s: NewRun: %v", label, err)
	}
	small := run.Alloc()
	kept := slices.Clone(small)
	before := snapshotRun(run)
	extended := run.Extend(p)
	if !slices.Equal(small, kept) {
		t.Fatalf("%s: Extend(%d) wrote the vector returned for %d", label, p, q)
	}
	want, err := referenceAllocate(g, p, rule)
	if err != nil {
		t.Fatalf("%s: referenceAllocate: %v", label, err)
	}
	if !extended {
		if !snapshotRun(run).equal(before) {
			t.Fatalf("%s: refused Extend(%d) changed the run", label, p)
		}
		fresh, err := Allocate(g, p, rule)
		if err != nil {
			t.Fatalf("%s: Allocate: %v", label, err)
		}
		if !slices.Equal(fresh, want) {
			t.Fatalf("%s: fresh run for %d %v, reference %v", label, p, fresh, want)
		}
		return false
	}
	fresh, err := Allocate(g, p, rule)
	if err != nil {
		t.Fatalf("%s: Allocate: %v", label, err)
	}
	for i := range want {
		if got := run.Alloc()[i]; got != fresh[i] || got != want[i] {
			t.Fatalf("%s: task %d extended to %d, fresh run %d, reference %d", label, i, got, fresh[i], want[i])
		}
	}
	if run.p != p {
		t.Fatalf("%s: extended run reports size %d, want %d", label, run.p, p)
	}
	return true
}

// TestExtendMatchesFresh is Extend's differential guarantee over the
// Table 1 grid (40 specs x 3 seeds x 3 size pairs x both stopping
// rules = 720 cases): whenever Extend continues a run, the result is
// the allocation a fresh run computes, element for element. The grid
// exercises both arms: 660 cases extend and 60 are refused.
func TestExtendMatchesFresh(t *testing.T) {
	extended, refused := 0, 0
	for _, spec := range daggen.ParamGrid() {
		for seed := int64(1); seed <= 3; seed++ {
			g := daggen.MustGenerate(spec, rand.New(rand.NewSource(seed)))
			for _, sz := range [][2]int{{16, 193}, {64, 193}, {193, 1152}} {
				for _, rule := range []StopRule{StopStringent, StopClassic} {
					label := fmt.Sprintf("n=%d width=%.1f seed=%d %d->%d %v", spec.N, spec.Width, seed, sz[0], sz[1], rule)
					if checkExtend(t, label, g, sz[0], sz[1], rule) {
						extended++
					} else {
						refused++
					}
				}
			}
		}
	}
	if extended < 100 || refused == 0 {
		t.Fatalf("%d runs extended, %d refused: the grid should exercise both arms", extended, refused)
	}
}

// TestExtendRefuses pins the cases in which a run must not be
// continued: a task held at a cap the larger cluster raises, and a
// cluster that is not larger.
func TestExtendRefuses(t *testing.T) {
	cases := []struct {
		name string
		g    *dag.Graph
		q, p int
		rule StopRule
	}{
		// alpha = 0 is never efficiency-capped, so its cap is the
		// cluster size, and the chain grows every task to it.
		{"alpha=0 chain at q", chain(3, model.Hour, 0), 8, 32, StopStringent},
		// The classic rule caps every task at the cluster size.
		{"classic chain at q", chain(5, model.Hour, 0.05), 4, 32, StopClassic},
	}
	for _, c := range cases {
		if checkExtend(t, c.name, c.g, c.q, c.p, c.rule) {
			t.Fatalf("%s: Extend(%d) continued a run with a task held at its cap for %d", c.name, c.p, c.q)
		}
		small, err := Allocate(c.g, c.q, c.rule)
		if err != nil {
			t.Fatal(err)
		}
		large, err := Allocate(c.g, c.p, c.rule)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(small, large) {
			t.Fatalf("%s: the runs for %d and %d agree; the case no longer needs the refusal", c.name, c.q, c.p)
		}
	}

	g := fork(6, model.Hour, 0.2)
	run, err := NewRun(g, 64, StopStringent)
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotRun(run)
	for _, p := range []int{64, 16, 0} {
		if run.Extend(p) {
			t.Fatalf("Extend(%d) on a run for 64 returned true", p)
		}
		if !snapshotRun(run).equal(before) {
			t.Fatalf("refused Extend(%d) changed the run", p)
		}
	}
}

// TestAllocateWideAgainstReference drives the exact configurations the
// BenchmarkAllocateWide acceptance benchmark measures, so the speedup
// being claimed is for provably unchanged output.
func TestAllocateWideAgainstReference(t *testing.T) {
	if testing.Short() {
		t.Skip("wide-DAG differential check is slow under -short")
	}
	for _, n := range []int{200, 400} {
		for _, p := range []int{256, 1152} {
			t.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(t *testing.T) {
				spec := daggen.Default()
				spec.N = n
				spec.Width = 0.8
				g := daggen.MustGenerate(spec, rand.New(rand.NewSource(3)))
				got, err := Allocate(g, p, StopStringent)
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceAllocate(g, p, StopStringent)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("task %d allocated %d, reference %d", i, got[i], want[i])
					}
				}
			})
		}
	}
}
