package resbook

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"resched/internal/model"
)

// BenchmarkShardedCommit measures the serving cycle — snapshot,
// compute a placement on the snapshot, commit, release — under
// concurrent committers on one book. Committers round-robin over eight
// day-long windows that are disjoint, or all fall on the same day. A
// commit is validated by capacity, so it goes stale only when the
// processors it placed on were taken between its snapshot and its
// commit; at 4 of 256 processors per committer they never are, and
// both arms should read 0 stale-retries/op. The metric exposes any
// recomputation thrown away and redone; ns/op absorbs it.
func BenchmarkShardedCommit(b *testing.B) {
	const (
		windows  = 8
		capacity = 256
		procs    = 4
	)
	for _, arm := range []struct {
		name    string
		overlap bool
	}{{"windows=disjoint", false}, {"windows=overlapping", true}} {
		b.Run(arm.name, func(b *testing.B) {
			book := New(capacity, 0)
			var next atomic.Int64
			var stale atomic.Int64
			b.SetParallelism(windows) // windows·GOMAXPROCS committers
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := next.Add(1) - 1
				base := model.Time(w%windows) * model.Day
				if arm.overlap {
					base = 0
				}
				for pb.Next() {
					for {
						snap := book.Snapshot()
						// The scheduling computation this commit
						// protects: find a slot inside the window.
						st, err := snap.Avail.EarliestFitChecked(procs, model.Hour, base)
						if err != nil {
							b.Fatal(err)
						}
						if free := snap.Avail.MinFree(st, st+model.Hour); free < procs {
							b.Fatalf("fit at %d has %d free", st, free)
						}
						// A real RESSCHED computation runs long enough
						// to be preempted between snapshot and commit;
						// yield here so that interleaving happens at
						// any core count instead of only when the
						// 10ms preemption timer lands inside a cycle.
						runtime.Gosched()
						out, err := book.Commit(snap, []Request{
							{Start: st, End: st + model.Hour, Procs: procs},
						})
						if err == nil {
							if err := book.Release(out[0].ID); err != nil {
								b.Fatal(err)
							}
							break
						}
						if !errors.Is(err, ErrStale) {
							b.Fatal(err)
						}
						stale.Add(1)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(stale.Load())/float64(b.N), "stale-retries/op")
		})
	}
}
