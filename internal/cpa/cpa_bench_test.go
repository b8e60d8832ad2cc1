package cpa

import (
	"fmt"
	"math/rand"
	"testing"

	"resched/internal/daggen"
)

// BenchmarkAllocate tracks the allocation phase's cost across cluster
// sizes — the P and P' factors of the paper's Table 8 complexities —
// for both stopping rules.
func BenchmarkAllocate(b *testing.B) {
	g := daggen.MustGenerate(daggen.Default(), rand.New(rand.NewSource(1)))
	for _, p := range []int{32, 256, 1152} {
		for _, rule := range []StopRule{StopStringent, StopClassic} {
			b.Run(fmt.Sprintf("p=%d/%v", p, rule), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Allocate(g, p, rule); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAllocateExtend prices what a Scheduler pays for the
// allocations for q and P on BenchmarkAllocate's graph: `fresh` runs
// the allocation phase twice from scratch, `extend` continues the run
// for q into the run for P.
func BenchmarkAllocateExtend(b *testing.B) {
	g := daggen.MustGenerate(daggen.Default(), rand.New(rand.NewSource(1)))
	const q, p = 193, 1152
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Allocate(g, q, StopStringent); err != nil {
				b.Fatal(err)
			}
			if _, err := Allocate(g, p, StopStringent); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("extend", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run, err := NewRun(g, q, StopStringent)
			if err != nil {
				b.Fatal(err)
			}
			if !run.Extend(p) {
				b.Fatal("the run for q cannot be extended to P on this graph")
			}
		}
	})
}

// BenchmarkAllocateWide tracks the allocation phase on width-heavy
// DAGs, where the refinement loop runs many iterations and the cost of
// recomputing levels from scratch dominates. This is the headline
// hot-path benchmark of the PR 2 perf work (see BENCH_PR2.json).
func BenchmarkAllocateWide(b *testing.B) {
	for _, n := range []int{200, 400} {
		spec := daggen.Default()
		spec.N = n
		spec.Width = 0.8
		g := daggen.MustGenerate(spec, rand.New(rand.NewSource(3)))
		for _, p := range []int{256, 1152} {
			b.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Allocate(g, p, StopStringent); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkListSchedule measures the mapping phase, the building block
// of the DL_RC reference schedules recomputed per task.
func BenchmarkListSchedule(b *testing.B) {
	for _, n := range []int{50, 100} {
		spec := daggen.Default()
		spec.N = n
		g := daggen.MustGenerate(spec, rand.New(rand.NewSource(2)))
		alloc, err := Allocate(g, 128, StopStringent)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ListSchedule(g, alloc, 128, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
