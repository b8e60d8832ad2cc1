package profile

import (
	"fmt"
	"math/rand"
	"testing"

	"resched/internal/model"
)

// loadedProfile builds a profile carrying n random reservations.
func loadedProfile(n int) *Profile {
	rng := rand.New(rand.NewSource(int64(n)))
	p := New(1024, 0)
	for k := 0; k < n; k++ {
		start := model.Time(rng.Int63n(int64(30 * model.Day)))
		dur := model.Duration(rng.Int63n(int64(6*model.Hour)) + 60)
		procs := rng.Intn(512) + 1
		if p.MinFree(start, start+dur) >= procs {
			if err := p.Reserve(start, start+dur, procs); err != nil {
				panic(err)
			}
		}
	}
	return p
}

// The profile queries are the inner loop of every algorithm; these
// benches track their scaling with the reservation count R (the R
// factor of the paper's Table 8 complexities).
func BenchmarkProfileScaling(b *testing.B) {
	for _, n := range []int{32, 256, 2048} {
		p := loadedProfile(n)
		b.Run(fmt.Sprintf("EarliestFit/R=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.EarliestFit(256, model.Hour, 0)
			}
		})
		b.Run(fmt.Sprintf("LatestFit/R=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.LatestFit(256, model.Hour, 0, 30*model.Day)
			}
		})
		b.Run(fmt.Sprintf("CloneReserve/R=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := p.Clone()
				st := c.EarliestFit(64, model.Hour, 0)
				if err := c.Reserve(st, st+model.Hour, 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitsBatch contrasts the solo probe loop with the one-sweep
// batch queries on the request shape the scheduling inner loop
// produces: one probe per candidate allocation, growing processors and
// shrinking (Amdahl-like) durations, all from one ready time.
func BenchmarkFitsBatch(b *testing.B) {
	p := loadedProfile(512)
	reqs := make([]FitRequest, 0, 48)
	for m := 1; m <= 48; m++ {
		reqs = append(reqs, FitRequest{Procs: 8 * m, Dur: model.Duration(6*model.Hour) / model.Duration(m)})
	}
	b.Run("EarliestFit/solo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				p.EarliestFit(r.Procs, r.Dur, model.Day)
			}
		}
	})
	b.Run("EarliestFits/batch", func(b *testing.B) {
		b.ReportAllocs()
		var out []model.Time
		for i := 0; i < b.N; i++ {
			out = p.EarliestFits(reqs, model.Day, out)
		}
	})
	// Deadline probes live in the congested region of the profile
	// (task deadlines sit between the reservations), where each solo
	// walk fails through many short runs before resolving.
	b.Run("LatestFit/solo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				p.LatestFit(r.Procs, r.Dur, model.Day, 12*model.Day)
			}
		}
	})
	b.Run("LatestFits/batch", func(b *testing.B) {
		b.ReportAllocs()
		var out []model.Time
		var ok []bool
		for i := 0; i < b.N; i++ {
			out, ok = p.LatestFits(reqs, model.Day, 12*model.Day, out, ok)
		}
	})
	// The same ladder asked only for its latest start, as the
	// aggressive deadline pick does: the staircase stops at the first
	// segment where some request resolves.
	b.Run("LatestFitMax/ladder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.LatestFitMax(reqs, model.Day, 12*model.Day)
		}
	})
}
