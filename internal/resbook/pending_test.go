package resbook

// Tests of the Pending index behind EarliestPendingActivation:
// a table of the cases its contract names, a seeded differential
// against the ledger scan it replaced (kept here as the oracle), the
// audit CheckInvariants runs on it with a seeded fault, and a -race
// storm of readers against committers and releasers.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"resched/internal/model"
)

// earliestPendingScan is EarliestPendingActivation as it was before the
// index: a scan of every ledger row. It is the differential oracle
// and reads nothing of the heap.
func earliestPendingScan(b *Book, after model.Time) (at model.Time, ok bool) {
	at = model.Infinity
	b.mu.RLock()
	for _, r := range b.res {
		if r.Status != Pending {
			continue
		}
		cand := r.Start
		if cand < after {
			cand = after
		}
		if cand < at {
			at = cand
			ok = true
		}
	}
	b.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return at, true
}

// bookKinds are the books the index serves, persistent and flat (the
// two backends share the ledger code). The shards=1 and shards=8 kinds
// of each backend are the same book: NewSharded returns one tree
// whatever the count, and the flat oracle has no sharded constructor.
// The duplicates only keep the subtest names of the sharded book these
// cases were written against; they collapse to "persistent" and "flat"
// when NewSharded is deleted (ROADMAP item 1(c)). The persistent kinds
// are built through NewSharded, as the benchmark module builds its
// books.
func bookKinds(t testing.TB, capacity int) map[string]*Book {
	t.Helper()
	kinds := map[string]*Book{}
	for _, nshards := range []int{1, 8} {
		pers, err := NewSharded(capacity, 0, nshards, model.Hour)
		if err != nil {
			t.Fatal(err)
		}
		kinds[fmt.Sprintf("persistent/shards=%d", nshards)] = pers
		kinds[fmt.Sprintf("flat/shards=%d", nshards)] = NewFlat(capacity, 0)
	}
	return kinds
}

func TestEarliestPendingActivation(t *testing.T) {
	const H = model.Time(model.Hour)
	type want struct {
		at model.Time
		ok bool
	}
	cases := []struct {
		name  string
		drive func(t *testing.T, b *Book, reserve func(start model.Time) string)
		after model.Time
		want  want
	}{
		{name: "empty book", drive: func(*testing.T, *Book, func(model.Time) string) {}, want: want{0, false}},
		{name: "one pending", drive: func(_ *testing.T, _ *Book, reserve func(model.Time) string) {
			reserve(500)
		}, after: 100, want: want{500, true}},
		{name: "overdue pending clamps to after", drive: func(_ *testing.T, _ *Book, reserve func(model.Time) string) {
			reserve(500)
		}, after: 900, want: want{900, true}},
		{name: "activate retires the row", drive: func(t *testing.T, b *Book, reserve func(model.Time) string) {
			id := reserve(500)
			reserve(700)
			mustNil(t, b.Activate(id))
		}, want: want{700, true}},
		{name: "release retires the row", drive: func(t *testing.T, b *Book, reserve func(model.Time) string) {
			id := reserve(500)
			reserve(700)
			mustNil(t, b.Release(id))
		}, want: want{700, true}},
		{name: "last pending retired", drive: func(t *testing.T, b *Book, reserve func(model.Time) string) {
			mustNil(t, b.Activate(reserve(500)))
			mustNil(t, b.Release(reserve(600)))
		}, want: want{0, false}},
		{name: "minimum across shards", drive: func(_ *testing.T, _ *Book, reserve func(model.Time) string) {
			reserve(5*H + 10)
			reserve(2*H + 20)
			reserve(7*H + 30)
		}, want: want{2*H + 20, true}},
		{name: "earlier shard drained", drive: func(t *testing.T, b *Book, reserve func(model.Time) string) {
			id := reserve(10)
			reserve(3*H + 5)
			mustNil(t, b.Activate(id))
		}, want: want{3*H + 5, true}},
		{name: "equal starts", drive: func(t *testing.T, b *Book, reserve func(model.Time) string) {
			a := reserve(400)
			reserve(400)
			reserve(400)
			mustNil(t, b.Release(a))
		}, want: want{400, true}},
		{name: "released row under a still-pending later one", drive: func(t *testing.T, b *Book, reserve func(model.Time) string) {
			// 300 stays on top; 800 leaves Pending buried beneath it and
			// must not resurface once 300 is retired, while 900 must.
			top := reserve(300)
			buried := reserve(800)
			reserve(900)
			mustNil(t, b.Release(buried))
			if at, ok := b.EarliestPendingActivation(0); !ok || at != 300 {
				t.Fatalf("with 300 still pending: got (%d,%v)", at, ok)
			}
			mustNil(t, b.Activate(top))
		}, want: want{900, true}},
		{name: "double activate is a no-op", drive: func(t *testing.T, b *Book, reserve func(model.Time) string) {
			id := reserve(500)
			reserve(600)
			mustNil(t, b.Activate(id))
			mustNil(t, b.Activate(id))
		}, want: want{600, true}},
	}
	for _, tc := range cases {
		for kind, b := range bookKinds(t, 64) {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				reserve := func(start model.Time) string {
					r, err := b.Reserve(start, start+50, 1)
					mustNil(t, err)
					return r.ID
				}
				tc.drive(t, b, reserve)
				at, ok := b.EarliestPendingActivation(tc.after)
				if at != tc.want.at || ok != tc.want.ok {
					t.Errorf("EarliestPendingActivation(%d) = (%d,%v), want (%d,%v)", tc.after, at, ok, tc.want.at, tc.want.ok)
				}
				if sat, sok := earliestPendingScan(b, tc.after); sat != at || sok != ok {
					t.Errorf("scan oracle says (%d,%v), index (%d,%v)", sat, sok, at, ok)
				}
				mustNil(t, b.CheckInvariants())
			})
		}
	}
}

func mustNil(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestPendingIndexMatchesScan is the index-vs-scan differential: after
// every one of 10k seeded Reserve / Commit / Activate / Release ops, on
// each of the four book kinds, the index must answer what the ledger
// scan answers, at a probe time that walks the horizon (so the clamp is
// on both sides of the answer). Activate and Release pick any live row,
// so rows leave Pending anywhere in the heap, not only at its top, and
// the lazy deletion has buried entries to skip.
func TestPendingIndexMatchesScan(t *testing.T) {
	ops := 10_000
	if testing.Short() {
		ops = 2_000
	}
	for kind, b := range bookKinds(t, 1<<20) {
		t.Run(kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(24))
			horizon := 16 * model.Time(model.Hour)
			var live []string // Pending or Active, i.e. still releasable
			for step := 0; step < ops; step++ {
				start := model.Time(rng.Int63n(int64(horizon)))
				end := start + 1 + model.Duration(rng.Int63n(int64(model.Hour)))
				switch op := rng.Intn(8); {
				case op <= 1:
					if r, err := b.Reserve(start, end, 1); err == nil {
						live = append(live, r.ID)
					}
				case op == 2:
					reqs := []Request{{Start: start, End: end, Procs: 1}, {Start: start / 2, End: start/2 + 10, Procs: 1}}
					if out, err := b.Commit(b.Snapshot(), reqs); err == nil {
						for _, r := range out {
							live = append(live, r.ID)
						}
					}
				case op <= 4 && len(live) > 0:
					// Activating an already Active row is a legal no-op.
					mustNil(t, b.Activate(live[rng.Intn(len(live))]))
				case len(live) > 0:
					i := rng.Intn(len(live))
					mustNil(t, b.Release(live[i]))
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}

				after := horizon * model.Time(step%7) / 6
				at, ok := b.EarliestPendingActivation(after)
				sat, sok := earliestPendingScan(b, after)
				if at != sat || ok != sok {
					t.Fatalf("step %d, after %d: index (%d,%v), scan (%d,%v)", step, after, at, ok, sat, sok)
				}
				if step%64 == 0 {
					auditPending(t, b, step)
				}
			}
			auditPending(t, b, ops)
			stale := 0
			for _, r := range b.pending {
				if r.Status != Pending {
					stale++
				}
			}
			if stale == 0 {
				t.Error("no buried non-Pending entry at the end: the lazy path went unexercised")
			}
		})
	}
}

// auditPending runs the index audit alone; CheckInvariants also replays
// the whole ledger, too slow to repeat through a 10k-op run.
func auditPending(t *testing.T, b *Book, step int) {
	t.Helper()
	b.mu.Lock()
	err := b.checkPendingLocked()
	b.mu.Unlock()
	if err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// TestPendingIndexSeededFaults breaks the index the ways its writers
// could — Activate forgetting to pop, a row never pushed, an entry
// filed in the wrong book, heap order lost — and requires both safety
// nets to notice: CheckInvariants names the fault, and (where the
// answer changes) the index stops agreeing with the scan.
func TestPendingIndexSeededFaults(t *testing.T) {
	build := func(t *testing.T) (*Book, []Reservation) {
		b := New(8, 0)
		var rows []Reservation
		for _, start := range []model.Time{100, 200, 300, model.Time(model.Hour) + 50} {
			r, err := b.Reserve(start, start+10, 1)
			mustNil(t, err)
			rows = append(rows, r)
		}
		mustNil(t, b.CheckInvariants())
		return b, rows
	}
	cases := []struct {
		name     string
		fault    func(b *Book, rows []Reservation)
		wantErr  string
		diverges bool
	}{
		{"activate skips the pop", func(b *Book, rows []Reservation) {
			b.mu.Lock()
			b.res[rows[0].ID].Status = Active
			b.version.Add(1)
			b.mu.Unlock()
		}, "top r000001 is active", true},
		{"row filed without a push", func(b *Book, rows []Reservation) {
			b.mu.Lock()
			b.pending = b.pending[1:] // drops the top, start 100
			b.mu.Unlock()
		}, "is missing", true},
		{"entry of another book", func(b *Book, rows []Reservation) {
			other := New(8, 0)
			r, err := other.Reserve(rows[3].Start, rows[3].End, 1)
			if err != nil {
				panic(err)
			}
			other.mu.RLock()
			row := other.res[r.ID]
			other.mu.RUnlock()
			b.mu.Lock()
			b.pushPendingLocked(row)
			b.mu.Unlock()
		}, "not a ledger row", false},
		{"row indexed twice", func(b *Book, rows []Reservation) {
			b.mu.Lock()
			b.pushPendingLocked(b.res[rows[2].ID])
			b.mu.Unlock()
		}, "indexed twice", false},
		{"heap order lost", func(b *Book, rows []Reservation) {
			b.mu.Lock()
			h := b.pending
			h[0], h[len(h)-1] = h[len(h)-1], h[0]
			b.mu.Unlock()
		}, "sits above", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, rows := build(t)
			tc.fault(b, rows)
			err := b.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("CheckInvariants = %v, want an error containing %q", err, tc.wantErr)
			}
			at, ok := b.EarliestPendingActivation(0)
			sat, sok := earliestPendingScan(b, 0)
			if diverged := at != sat || ok != sok; diverged != tc.diverges {
				t.Errorf("index (%d,%v) vs scan (%d,%v): diverged=%v, want %v", at, ok, sat, sok, diverged, tc.diverges)
			}
		})
	}
}

// TestEarliestPendingActivationRace has readers peek the index while
// committers, activators and releasers move it, for the race detector;
// each reader also checks the one thing it can without stopping the
// world — an answer is never before `after`. The quiesced book must
// then pass the audit and agree with the scan.
func TestEarliestPendingActivationRace(t *testing.T) {
	for kind, b := range bookKinds(t, 1<<20) {
		t.Run(kind, func(t *testing.T) {
			const writers, readers, opsPerWriter = 4, 3, 300
			horizon := 8 * int64(model.Hour)
			stop := make(chan struct{})
			var rwg, wwg sync.WaitGroup
			for r := 0; r < readers; r++ {
				rwg.Add(1)
				go func(after model.Time) {
					defer rwg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if at, ok := b.EarliestPendingActivation(after); ok && at < after {
							t.Errorf("EarliestPendingActivation(%d) = %d, before after", after, at)
							return
						}
					}
				}(model.Time(int64(r) * horizon / readers))
			}
			for w := 0; w < writers; w++ {
				wwg.Add(1)
				go func(seed int64) {
					defer wwg.Done()
					rng := rand.New(rand.NewSource(seed))
					var mine []string
					for i := 0; i < opsPerWriter; i++ {
						start := model.Time(rng.Int63n(horizon))
						switch {
						case i%3 == 0 || len(mine) == 0:
							out, _, err := b.Transact(context.Background(), 64, func(Snapshot) ([]Request, error) {
								return []Request{{Start: start, End: start + 30, Procs: 1}}, nil
							})
							if err != nil {
								t.Errorf("Transact: %v", err)
								return
							}
							mine = append(mine, out[0].ID)
						case i%3 == 1:
							if err := b.Activate(mine[rng.Intn(len(mine))]); err != nil {
								t.Errorf("Activate: %v", err)
								return
							}
						default:
							k := rng.Intn(len(mine))
							if err := b.Release(mine[k]); err != nil {
								t.Errorf("Release: %v", err)
								return
							}
							mine = append(mine[:k], mine[k+1:]...)
						}
					}
				}(int64(w) + 1)
			}
			wwg.Wait()
			close(stop)
			rwg.Wait()
			mustNil(t, b.CheckInvariants())
			at, ok := b.EarliestPendingActivation(0)
			if sat, sok := earliestPendingScan(b, 0); at != sat || ok != sok {
				t.Errorf("after the storm: index (%d,%v), scan (%d,%v)", at, ok, sat, sok)
			}
		})
	}
}

// TestReservationLayout pins the ledger row to the 48-byte size class.
// The book keeps every row forever and serve_commit allocates 50 a
// request; an index position stored in the row would move it to the
// 64-byte class (+1 % alloc_kb_per_op there), which is why the Pending
// heap deletes lazily instead of by position.
func TestReservationLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Reservation{}); sz > 48 {
		t.Fatalf("Reservation is %d bytes, over the 48-byte size class", sz)
	}
}
