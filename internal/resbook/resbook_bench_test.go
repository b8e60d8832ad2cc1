package resbook

import (
	"context"
	"fmt"
	"testing"

	"resched/internal/model"
)

// bench1kBook builds a book holding 1000 committed reservations with
// staggered, overlapping windows — the serving-path baseline the
// ISSUE calls for, complementing internal/profile's query benchmarks.
func bench1kBook(b *testing.B) *Book {
	b.Helper()
	book := New(256, 0)
	for i := 0; i < 1000; i++ {
		start := model.Time(i) * 10
		end := start + 500 // ~50 concurrent reservations at any time
		procs := 1 + i%4
		if _, err := book.Reserve(start, end, procs); err != nil {
			b.Fatal(err)
		}
	}
	return book
}

// BenchmarkSnapshot1k measures the copy-on-read cost a scheduling
// request pays before it can compute.
func BenchmarkSnapshot1k(b *testing.B) {
	book := bench1kBook(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := book.Snapshot()
		if snap.Avail.Capacity() != 256 {
			b.Fatal("bad snapshot")
		}
	}
}

// benchBookR builds a book with r committed reservations in the same
// staggered pattern as bench1kBook.
func benchBookR(b *testing.B, r int) *Book {
	b.Helper()
	book := New(256, 0)
	for i := 0; i < r; i++ {
		start := model.Time(i) * 10
		end := start + 500
		procs := 1 + i%4
		if _, err := book.Reserve(start, end, procs); err != nil {
			b.Fatal(err)
		}
	}
	return book
}

// BenchmarkSnapshotScaling measures Snapshot against growing
// reservation counts. On the persistent backend the cost is grabbing
// one copy-on-write root — O(1), so the three sizes should time alike; on the old deep-copy path this scaled linearly
// in R. BenchmarkSnapshotScalingFlat keeps the oracle's linear curve
// in the trajectory for comparison.
func BenchmarkSnapshotScaling(b *testing.B) {
	for _, r := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			book := benchBookR(b, r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap := book.Snapshot()
				if snap.Avail.Capacity() != 256 {
					b.Fatal("bad snapshot")
				}
			}
		})
	}
}

// BenchmarkSnapshotScalingFlat is BenchmarkSnapshotScaling on the
// flat-oracle backend: the deep-copy baseline the persistent path is
// measured against. 100k is omitted — the point (linear growth) is
// visible at 10k, and the deep copies dominate bench time.
func BenchmarkSnapshotScalingFlat(b *testing.B) {
	for _, r := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			book := NewFlat(256, 0)
			for i := 0; i < r; i++ {
				start := model.Time(i) * 10
				if _, err := book.Reserve(start, start+500, 1+i%4); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap := book.Snapshot()
				if snap.Avail.Capacity() != 256 {
					b.Fatal("bad snapshot")
				}
			}
		})
	}
}

// BenchmarkEarliestPendingActivation asks the backfill guardrail's one
// question of ledgers of growing size in which all but 8 rows are
// Active — the shape a long-running engine's book has, where rows
// accumulate and a handful of starvation reservations wait. Reading
// the top of the Pending index, the three sizes should time alike; the
// ledger scan this replaced was linear in the rows.
func BenchmarkEarliestPendingActivation(b *testing.B) {
	for _, rows := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			book := New(256, 0)
			for i := 0; i < rows; i++ {
				start := model.Time(i) * 10
				r, err := book.Reserve(start, start+500, 1+i%4)
				if err != nil {
					b.Fatal(err)
				}
				if i%(rows/8) == rows/16 {
					continue // one Pending row per eighth of the ledger
				}
				if err := book.Activate(r.ID); err != nil {
					b.Fatal(err)
				}
			}
			want := model.Time(rows/16) * 10
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if at, ok := book.EarliestPendingActivation(0); !ok || at != want {
					b.Fatalf("EarliestPendingActivation = (%d,%v), want (%d,true)", at, ok, want)
				}
			}
		})
	}
}

// BenchmarkSnapshotCommit1k measures one full optimistic booking
// cycle — snapshot, commit one reservation, release it — against 1000
// existing reservations.
func BenchmarkSnapshotCommit1k(b *testing.B) {
	book := bench1kBook(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := book.Snapshot()
		out, err := book.Commit(snap, []Request{{Start: 100, End: 200, Procs: 1}})
		if err != nil {
			b.Fatal(err)
		}
		if err := book.Release(out[0].ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransact1k measures the same cycle through the Transact
// retry loop (no contention, so exactly one attempt each).
func BenchmarkTransact1k(b *testing.B) {
	book := bench1kBook(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := book.Transact(context.Background(), 1, func(snap Snapshot) ([]Request, error) {
			return []Request{{Start: 100, End: 200, Procs: 1}}, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := book.Release(out[0].ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitRelease50 measures the book's share of one committing
// schedule request as RESSCHED issues it — a snapshot, one Commit of
// 50 requests (a reservation per task), then 50 Release calls, one per
// ID — on the 1k book. The snapshot ends the tree's edit; the 100
// writes after it share the next one.
func BenchmarkCommitRelease50(b *testing.B) {
	book := bench1kBook(b)
	reqs := make([]Request, 50)
	for i := range reqs {
		start := model.Time(2000 + 97*i)
		reqs[i] = Request{Start: start, End: start + 300, Procs: 1 + i%3}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := book.Commit(book.Snapshot(), reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range out {
			if err := book.Release(r.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
}
