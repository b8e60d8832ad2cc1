package core

import (
	"math/rand"
	"testing"

	"resched/internal/daggen"
	"resched/internal/model"
	"resched/internal/profile"
)

var benchTightest model.Time

// BenchmarkTightestDeadline times DL_RC_CPAR's tightest-deadline search
// on a 50-task DAG against ~60 competing reservations on 128
// processors. "fresh" builds a Scheduler per search, so the RESSCHEDDL
// plan is built inside the timing, as for one /v1/deadline request
// with "tightest"; "reused" keeps one Scheduler across searches, as
// sim.Lab does across the environments of one DAG.
func BenchmarkTightestDeadline(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	spec := daggen.Default()
	spec.N = 50
	g := daggen.MustGenerate(spec, rng)
	const p = 128
	now := model.Time(3 * model.Day)
	prof := profile.New(p, now)
	for k := 0; k < 60; k++ {
		start := now + model.Time(rng.Int63n(int64(3*model.Day)))
		dur := model.Duration(rng.Int63n(int64(8*model.Hour)) + 600)
		procs := 1 + rng.Intn(p/2)
		if prof.MinFree(start, start+dur) >= procs {
			if err := prof.Reserve(start, start+dur, procs); err != nil {
				b.Fatal(err)
			}
		}
	}
	env := Env{P: p, Now: now, Avail: prof, Q: 80}
	search := func(b *testing.B, s *Scheduler) {
		k, _, err := s.TightestDeadline(env, DLRCCPAR)
		if err != nil {
			b.Fatal(err)
		}
		benchTightest = k
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := NewScheduler(g)
			if err != nil {
				b.Fatal(err)
			}
			search(b, s)
		}
	})
	b.Run("reused", func(b *testing.B) {
		s, err := NewScheduler(g)
		if err != nil {
			b.Fatal(err)
		}
		search(b, s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			search(b, s)
		}
	})
}
