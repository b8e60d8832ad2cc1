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
func walledProfile(n int) (*Profile, *PersistentProfile) {
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
	return p, NewPersistentFromProfile(p)
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
		b.Run(fmt.Sprintf("segments=%d/backend=persistent", n), func(b *testing.B) {
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
			pers := tree.Clone()
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

// fitSink keeps the compiler from discarding the benchmarked probes.
var fitSink model.Time

// BenchmarkSnapshotArms sweeps the cut AutoTreeThreshold places in the
// reservation book's SnapshotInto. Each arm builds a snapshot as the
// book does: below the cut it materializes the book's persistent root
// into a pooled flat profile, at or above it a Clone of the root is
// the snapshot. Each arm then answers k
// EarliestFit probes, since what a snapshot costs depends on how many
// probes its copy is paid back over. The horizon grows with n, so the
// load stays about the same across the sweep. Successive iterations
// take successive probes from a fixed mix of 50: narrow probes (up to
// an eighth of the cluster) mostly fit at once, while wide ones (up to
// all of it) skip most segments — the flat scan's best case against
// the tree's worst.
func BenchmarkSnapshotArms(b *testing.B) {
	const capacity = 64
	for _, n := range []int{32, 64, 128, 256, 512} {
		rng := rand.New(rand.NewSource(int64(n)))
		flat := New(capacity, 0)
		for flat.NumSegments() < n {
			// Whole minutes, so that now and then a booking shares a
			// breakpoint and adds one segment, not two: every n is
			// reachable.
			start := model.Time(rng.Int63n(int64(n)*60)) * model.Minute
			end := start + model.Time(30+rng.Int63n(330))*model.Minute
			procs := 1 + rng.Intn(capacity/2)
			if flat.MinFree(start, end) < procs {
				continue
			}
			if err := flat.Reserve(start, end, procs); err != nil {
				b.Fatal(err)
			}
			if flat.NumSegments() > n { // overshot by one breakpoint
				if err := flat.Unreserve(start, end, procs); err != nil {
					b.Fatal(err)
				}
			}
		}
		tree := NewPersistentFromProfile(flat)
		for _, mix := range []struct {
			name     string
			maxProcs int
		}{{"narrow", capacity / 8}, {"wide", capacity}} {
			probes := make([]FitRequest, 50)
			for i := range probes {
				p := FitRequest{Procs: 1 + rng.Intn(mix.maxProcs), Dur: model.Duration(rng.Int63n(int64(8*model.Hour)) + 60)}
				if f, t := flat.EarliestFit(p.Procs, p.Dur, 0), tree.EarliestFit(p.Procs, p.Dur, 0); f != t {
					b.Fatalf("probe %+v: flat %d, tree %d", p, f, t)
				}
				probes[i] = p
			}
			for _, k := range []int{1, 10, 50} {
				dst := &Profile{}
				arms := []struct {
					name string
					snap func() Intervals
				}{
					{"flat", func() Intervals {
						dst.Reset(capacity, 0)
						tree.AppendSegmentsTo(dst)
						return dst
					}},
					{"persistent", func() Intervals { return tree.Clone() }},
				}
				for _, arm := range arms {
					b.Run(fmt.Sprintf("segments=%d/probes=%s/k=%d/arm=%s", n, mix.name, k, arm.name), func(b *testing.B) {
						b.ReportAllocs()
						next := 0
						for i := 0; i < b.N; i++ {
							avail := arm.snap()
							for j := 0; j < k; j++ {
								p := probes[next]
								fitSink = avail.EarliestFit(p.Procs, p.Dur, 0)
								next = (next + 1) % len(probes)
							}
						}
					})
				}
			}
		}
	}
}
