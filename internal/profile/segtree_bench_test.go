package profile

import (
	"fmt"
	"math/rand"
	"testing"

	"resched/internal/model"
)

// walledProfile builds a profile with roughly n segments: dense runs
// of small, individually feasible reservations separated by a few
// full-width "walls". This is the shape advance-reservation horizons
// take under heavy traffic — lots of fine-grained fragmentation, a
// handful of genuinely blocking windows — and it is where the two
// backends diverge asymptotically: a probe that must clear the walls
// costs the flat backend a walk over every fragment in between, while
// the tree hops wall to wall with O(log n) descents.
func walledProfile(n int) (*Profile, *TreeProfile) {
	const capacity, walls = 1024, 12
	rng := rand.New(rand.NewSource(int64(n)))
	p := New(capacity, 0)
	perBlock := n / (2 * walls) // each small reservation adds ~2 breakpoints
	blockLen := model.Time(30*model.Day) / walls
	for w := 0; w < walls; w++ {
		base := model.Time(w) * blockLen
		for k := 0; k < perBlock; k++ {
			dur := model.Duration(rng.Int63n(int64(model.Hour)) + 60)
			// Keep the small reservations clear of the wall zone at the
			// end of the block so the wall always fits.
			start := base + model.Time(rng.Int63n(int64(blockLen*9/10-dur)))
			procs := rng.Intn(8) + 1
			if p.MinFree(start, start+dur) >= capacity/2+procs {
				if err := p.Reserve(start, start+dur, procs); err != nil {
					panic(err)
				}
			}
		}
		// The wall: a near-full reservation closing out the block.
		wallStart := base + blockLen*9/10
		if err := p.Reserve(wallStart, wallStart+model.Hour, capacity-8); err != nil {
			panic(err)
		}
	}
	return p, NewTreeFromProfile(p)
}

// BenchmarkEarliestFit contrasts the two backends on the same probes
// at growing horizon sizes. The probe asks for half the cluster for a
// duration longer than any inter-wall gap, so it must clear every
// wall: O(n) for the flat walk, O(walls · log n) for the tree.
func BenchmarkEarliestFit(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		flat, tree := walledProfile(n)
		if flat.NumSegments() < n/2 {
			b.Fatalf("construction produced only %d segments for n=%d", flat.NumSegments(), n)
		}
		want := flat.EarliestFit(512, 4*model.Day, 0)
		if got := tree.EarliestFit(512, 4*model.Day, 0); got != want {
			b.Fatalf("backends disagree: tree %d, flat %d", got, want)
		}
		b.Run(fmt.Sprintf("segments=%d/backend=flat", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				flat.EarliestFit(512, 4*model.Day, 0)
			}
		})
		b.Run(fmt.Sprintf("segments=%d/backend=tree", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tree.EarliestFit(512, 4*model.Day, 0)
			}
		})
	}
}

// BenchmarkTreeMutate tracks the O(log n) mutation path against the
// flat O(n) splice on a reserve/unreserve round trip mid-horizon.
func BenchmarkTreeMutate(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		flat, tree := walledProfile(n)
		start := model.Time(15 * model.Day)
		b.Run(fmt.Sprintf("segments=%d/backend=flat", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := flat.Reserve(start, start+30, 1); err != nil {
					b.Fatal(err)
				}
				if err := flat.Unreserve(start, start+30, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("segments=%d/backend=tree", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := tree.Reserve(start, start+30, 1); err != nil {
					b.Fatal(err)
				}
				if err := tree.Unreserve(start, start+30, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The persistent treap in its two regimes: one handle whose edit
		// runs on across round trips (owned nodes written in place), and
		// a Clone before every round trip, which ends the edit, so that
		// each round trip copies the nodes it touches — once, where
		// before edits existed each of its ten descents copied its path.
		for _, cloned := range []bool{false, true} {
			name := "persistent"
			if cloned {
				name = "persistent-cloned"
			}
			pers := NewPersistentFromProfile(flat)
			b.Run(fmt.Sprintf("segments=%d/backend=%s", n, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if cloned {
						pers = pers.Clone()
					}
					if err := pers.Reserve(start, start+30, 1); err != nil {
						b.Fatal(err)
					}
					if err := pers.Unreserve(start, start+30, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
