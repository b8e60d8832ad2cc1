package resbook

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"resched/internal/model"
	"resched/internal/profile"
)

// TestPersistentBookMatchesFlatOracle drives identical seeded op
// sequences — Reserve, Commit-through-Transact, Activate, Release —
// through a persistent-backend book and the flat-oracle book, and
// requires the rendered snapshot, version, and invariants to agree
// after every operation. The two backends share the ID counter
// behavior, so rows correspond one-to-one.
func TestPersistentBookMatchesFlatOracle(t *testing.T) {
	const capacity = 48
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 7919))
			nshards := 1 + rng.Intn(8)
			epoch := model.Duration(model.Hour)
			pers, err := NewSharded(capacity, 0, nshards, epoch)
			if err != nil {
				t.Fatal(err)
			}
			flat, err := NewShardedFlat(capacity, 0, nshards, epoch)
			if err != nil {
				t.Fatal(err)
			}
			if !pers.Persistent() || flat.Persistent() {
				t.Fatal("backend selection broken")
			}

			var live []string
			horizon := int64(nshards) * int64(epoch) * 2
			for step := 0; step < 250; step++ {
				start := model.Time(rng.Int63n(horizon))
				end := start + 1 + model.Duration(rng.Int63n(int64(epoch)))
				procs := 1 + rng.Intn(capacity)

				switch op := rng.Intn(6); {
				case op <= 2: // Reserve
					rp, errP := pers.Reserve(start, end, procs)
					rf, errF := flat.Reserve(start, end, procs)
					if (errP == nil) != (errF == nil) {
						t.Fatalf("step %d: Reserve persistent err=%v, flat err=%v", step, errP, errF)
					}
					if errP != nil {
						if errP.Error() != errF.Error() {
							t.Fatalf("step %d: Reserve errors diverged\npersistent: %v\nflat:       %v", step, errP, errF)
						}
						break
					}
					if rp.ID != rf.ID {
						t.Fatalf("step %d: IDs diverged: %s vs %s", step, rp.ID, rf.ID)
					}
					live = append(live, rp.ID)
				case op == 3: // Commit through Transact (validates stamps too)
					req := Request{Start: start, End: end, Procs: procs}
					outP, _, errP := pers.Transact(context.Background(), 1, func(Snapshot) ([]Request, error) {
						return []Request{req}, nil
					})
					outF, _, errF := flat.Transact(context.Background(), 1, func(Snapshot) ([]Request, error) {
						return []Request{req}, nil
					})
					if (errP == nil) != (errF == nil) {
						t.Fatalf("step %d: Transact persistent err=%v, flat err=%v", step, errP, errF)
					}
					if errP == nil {
						if outP[0].ID != outF[0].ID {
							t.Fatalf("step %d: Transact IDs diverged", step)
						}
						live = append(live, outP[0].ID)
					}
				case op == 4 && len(live) > 0: // Release
					i := rng.Intn(len(live))
					id := live[i]
					live = append(live[:i], live[i+1:]...)
					errP := pers.Release(id)
					errF := flat.Release(id)
					if (errP == nil) != (errF == nil) {
						t.Fatalf("step %d: Release(%s) persistent err=%v, flat err=%v", step, id, errP, errF)
					}
				case op == 5 && len(live) > 0: // Activate
					id := live[rng.Intn(len(live))]
					errP := pers.Activate(id)
					errF := flat.Activate(id)
					if (errP == nil) != (errF == nil) {
						t.Fatalf("step %d: Activate(%s) persistent err=%v, flat err=%v", step, id, errP, errF)
					}
				}

				sp := pers.Snapshot()
				sf := flat.Snapshot()
				if sp.Version != sf.Version {
					t.Fatalf("step %d: versions diverged: %d vs %d", step, sp.Version, sf.Version)
				}
				if sp.Avail.String() != sf.Avail.String() {
					t.Fatalf("step %d: snapshots diverged\n  persistent %s\n  flat       %s",
						step, sp.Avail.String(), sf.Avail.String())
				}
				if err := sp.Avail.Check(); err != nil {
					t.Fatalf("step %d: persistent snapshot invariants: %v", step, err)
				}
			}
			if err := pers.CheckInvariants(); err != nil {
				t.Fatalf("persistent book invariants: %v", err)
			}
			if err := flat.CheckInvariants(); err != nil {
				t.Fatalf("flat book invariants: %v", err)
			}

			// Ledgers agree row for row.
			lp, lf := pers.List(), flat.List()
			if len(lp) != len(lf) {
				t.Fatalf("ledger lengths diverged: %d vs %d", len(lp), len(lf))
			}
			sort.Slice(lp, func(i, j int) bool { return lp[i].ID < lp[j].ID })
			sort.Slice(lf, func(i, j int) bool { return lf[i].ID < lf[j].ID })
			for i := range lp {
				if lp[i] != lf[i] {
					t.Fatalf("ledger row %d diverged: %+v vs %+v", i, lp[i], lf[i])
				}
			}
		})
	}
}

// TestSnapshotIsolationUnderConcurrentCommits is the -race stress for
// the tentpole property: a snapshot handle taken before a storm of
// concurrent commits and releases keeps rendering — and answering
// queries on — exactly the schedule it was taken at. Writers path-copy
// fresh shard roots; the frozen roots the snapshot pinned are never
// written.
func TestSnapshotIsolationUnderConcurrentCommits(t *testing.T) {
	t.Run("frozen-handle", func(t *testing.T) { snapshotIsolationStorm(t, 0) })
	// The second variant adds goroutines that all snapshot while the
	// writers burst, and confines the writers to shard 0: its handle's
	// edit is open most of the time, and Clone retires it — a store —
	// under the shard's RLock from several goroutines at once. -race
	// checks that store; the renders check that no burst reaches a
	// snapshot taken in the middle of one.
	t.Run("concurrent-snapshotters", func(t *testing.T) { snapshotIsolationStorm(t, 4) })
}

// snapshotIsolationStorm is TestSnapshotIsolationUnderConcurrentCommits'
// body. With snapshotters > 0 that many goroutines snapshot the book
// concurrently, and each writer works in shard 0 only, following its
// Transact with a burst of Reserve/Release calls that take no snapshot.
func snapshotIsolationStorm(t *testing.T, snapshotters int) {
	const (
		capacity = 64
		nshards  = 8
		writers  = 4
		readers  = 4
	)
	iters := 150
	if snapshotters > 0 {
		iters = 50 // every writer in one shard: most commits retry
	}
	book, err := NewSharded(capacity, 0, nshards, model.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Enough booked reservations that the snapshot is a tree handle,
	// not a small-R flat materialization.
	for i := 0; i < 400; i++ {
		start := model.Time(i) * 37
		if _, err := book.Reserve(start, start+200, 1+i%3); err != nil {
			t.Fatal(err)
		}
	}

	snap := book.Snapshot()
	frozen := snap.Avail.String()
	frozenFit, err := snap.Avail.EarliestFitChecked(capacity/2, 500, 0)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers+snapshotters)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < iters; i++ {
				// Mostly shard-local windows, with occasional spans to
				// exercise multi-shard commits.
				base := int64(w) * int64(model.Hour)
				if rng.Intn(5) == 0 {
					base = rng.Int63n(int64(nshards-1) * int64(model.Hour))
				}
				if snapshotters > 0 {
					base = 0
				}
				start := model.Time(base + rng.Int63n(int64(model.Hour)))
				end := start + 1 + model.Duration(rng.Int63n(int64(model.Hour)))
				out, _, err := book.Transact(context.Background(), 100, func(s Snapshot) ([]Request, error) {
					if s.Avail.MinFree(start, end) < 1 {
						return nil, nil // full here; just validate the fence
					}
					return []Request{{Start: start, End: end, Procs: 1}}, nil
				})
				if err != nil {
					errs <- fmt.Errorf("writer %d iter %d: %v", w, i, err)
					return
				}
				if len(out) > 0 && rng.Intn(2) == 0 {
					if err := book.Release(out[0].ID); err != nil {
						errs <- fmt.Errorf("writer %d release: %v", w, err)
						return
					}
				}
				for k := 0; snapshotters > 0 && k < 4; k++ {
					r, err := book.Reserve(start, end, 1)
					if err != nil {
						break // full here
					}
					if err := book.Release(r.ID); err != nil {
						errs <- fmt.Errorf("writer %d burst release: %v", w, err)
						return
					}
				}
			}
		}()
	}
	for r := 0; r < snapshotters; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held Snapshot
			var heldRender string
			for i := 0; i < iters; i++ {
				s := book.Snapshot()
				render := s.Avail.String()
				if err := s.Avail.Check(); err != nil {
					errs <- fmt.Errorf("snapshotter %d iter %d: %v", r, i, err)
					return
				}
				if held.Avail != nil && held.Avail.String() != heldRender {
					errs <- fmt.Errorf("snapshotter %d iter %d: snapshot taken mid-storm moved:\n  was %s\n  now %s", r, i, heldRender, held.Avail.String())
					return
				}
				held, heldRender = s, render
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if got := snap.Avail.String(); got != frozen {
					errs <- fmt.Errorf("reader %d iter %d: snapshot observed post-commit mutation:\n  was %s\n  now %s", r, i, frozen, got)
					return
				}
				fit, err := snap.Avail.EarliestFitChecked(capacity/2, 500, 0)
				if err != nil || fit != frozenFit {
					errs <- fmt.Errorf("reader %d iter %d: frozen fit drifted: (%d,%v) != %d", r, i, fit, err, frozenFit)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := snap.Avail.String(); got != frozen {
		t.Errorf("snapshot mutated after the storm:\n  was %s\n  now %s", frozen, got)
	}
	if err := book.CheckInvariants(); err != nil {
		t.Fatalf("book invariants after storm: %v", err)
	}
}

// TestSnapshotHandleStagingIsPrivate checks the serving-path use of a
// persistent snapshot: staging trial reservations on the handle (as
// the batch path does) never leaks into the live book or into other
// snapshots.
func TestSnapshotHandleStagingIsPrivate(t *testing.T) {
	book, err := NewSharded(32, 0, 4, model.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		start := model.Time(i) * 29
		if _, err := book.Reserve(start, start+120, 1); err != nil {
			t.Fatal(err)
		}
	}
	before := book.Snapshot()
	ref := before.Avail.String()

	work := book.Snapshot()
	if err := work.Avail.Reserve(10, 500, 8); err != nil {
		t.Fatal(err)
	}
	if err := work.Avail.Reserve(3600, 4000, 16); err != nil {
		t.Fatal(err)
	}

	if got := book.Snapshot().Avail.String(); got != ref {
		t.Fatalf("staging on a snapshot handle mutated the book:\n  was %s\n  now %s", ref, got)
	}
	if got := before.Avail.String(); got != ref {
		t.Fatalf("staging on one handle mutated another:\n  was %s\n  now %s", ref, got)
	}
	if err := book.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// stampsOnly returns a Snapshot that passes Commit's stamp validation
// without having cloned any shard's profile — so, unlike Snapshot, it
// leaves the shards' open edits open. Only Epochs and Version are set.
func stampsOnly(b *Book) Snapshot {
	snap := Snapshot{Version: b.Version(), Epochs: make([]uint64, len(b.shards))}
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		snap.Epochs[i] = sh.stamp
		sh.mu.RUnlock()
	}
	return snap
}

// TestSnapshotSurvivesEditRun: a snapshot taken before K Reserve,
// Commit and Release calls, with no snapshot in between to end the
// shards' edits, renders unchanged after every one of them — the
// writes in place go only to nodes created after the snapshot pinned
// its roots — and the book stays equal to a flat-backend book given
// the same calls.
func TestSnapshotSurvivesEditRun(t *testing.T) {
	const capacity = 32
	for _, k := range []int{1, 2, 8, 50} {
		k := k
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			pers, err := NewSharded(capacity, 0, 4, model.Hour)
			if err != nil {
				t.Fatal(err)
			}
			flat, err := NewShardedFlat(capacity, 0, 4, model.Hour)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				start := model.Time(i) * 41
				for _, b := range []*Book{pers, flat} {
					if _, err := b.Reserve(start, start+150, 1+i%2); err != nil {
						t.Fatal(err)
					}
				}
			}
			snap := pers.Snapshot()
			if _, tree := snap.Avail.(*profile.PersistentProfile); !tree {
				t.Fatalf("snapshot is a %T, not a tree handle", snap.Avail)
			}
			frozen := snap.Avail.String()

			rng := rand.New(rand.NewSource(int64(k)))
			var live []string
			for i := 0; i < k; i++ {
				start := model.Time(rng.Int63n(int64(4 * model.Hour)))
				end := start + 1 + model.Duration(rng.Int63n(int64(model.Hour)))
				switch op := rng.Intn(3); {
				case op == 0:
					rp, errP := pers.Reserve(start, end, 1)
					_, errF := flat.Reserve(start, end, 1)
					if (errP == nil) != (errF == nil) {
						t.Fatalf("call %d: Reserve persistent err=%v, flat err=%v", i, errP, errF)
					}
					if errP == nil {
						live = append(live, rp.ID)
					}
				case op == 1:
					reqs := []Request{{Start: start, End: end, Procs: 1}, {Start: end, End: end + 100, Procs: 2}}
					outP, errP := pers.Commit(stampsOnly(pers), reqs)
					_, errF := flat.Commit(stampsOnly(flat), reqs)
					if (errP == nil) != (errF == nil) {
						t.Fatalf("call %d: Commit persistent err=%v, flat err=%v", i, errP, errF)
					}
					for _, r := range outP {
						live = append(live, r.ID)
					}
				case len(live) > 0:
					j := rng.Intn(len(live))
					id := live[j]
					live = append(live[:j], live[j+1:]...)
					if errP, errF := pers.Release(id), flat.Release(id); errP != nil || errF != nil {
						t.Fatalf("call %d: Release(%s) persistent err=%v, flat err=%v", i, id, errP, errF)
					}
				}
				if got := snap.Avail.String(); got != frozen {
					t.Fatalf("call %d moved the snapshot:\n  was %s\n  now %s", i, frozen, got)
				}
			}
			if got, want := pers.Snapshot().Avail.String(), flat.Snapshot().Avail.String(); got != want {
				t.Fatalf("books diverged after the run:\n  persistent %s\n  flat       %s", got, want)
			}
			if err := pers.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFailedCommitInsideLiveEditLeavesNoTrace: a multi-shard commit
// that fails part-way is rolled back by Unreserve calls that, inside a
// live edit, write the very nodes the failed Reserves wrote. Segments,
// ledger and version must equal those of a book that never tried — at
// once, and after further calls inside the same edits.
func TestFailedCommitInsideLiveEditLeavesNoTrace(t *testing.T) {
	const capacity = 16
	build := func() *Book {
		b, err := NewSharded(capacity, 0, 4, model.Hour)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			start := model.Time(i) * 53
			if _, err := b.Reserve(start, start+90, 1+i%3); err != nil {
				t.Fatal(err)
			}
		}
		// Fill a slot of shard 2 so that anything else there fails.
		if _, err := b.Reserve(2*model.Hour+1000, 2*model.Hour+1100, b.Snapshot().Avail.MinFree(2*model.Hour+1000, 2*model.Hour+1100)); err != nil {
			t.Fatal(err)
		}
		return b
	}
	// touch opens (or carries on) an edit on every shard of both books.
	touch := func(at model.Time, books ...*Book) {
		for _, b := range books {
			for sh := model.Time(0); sh < 4; sh++ {
				if _, err := b.Reserve(sh*model.Hour+at, sh*model.Hour+at+10, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tried, control := build(), build()
	touch(10, tried, control)
	before := tried.Snapshot() // the last Clone of tried's shards until the final comparison
	frozen := before.Avail.String()
	touch(30, tried, control)

	version := tried.Version()
	failing := [][]Request{
		{ // the second request fails: the first, over shards 0-2, is rolled back by Commit
			{Start: 100, End: 2*model.Hour + 900, Procs: 2},
			{Start: 2*model.Hour + 1050, End: 2*model.Hour + 1060, Procs: 1},
		},
		{ // one request failing in its third shard: applyLocked undoes shards 0 and 1
			{Start: model.Hour - 5, End: 2*model.Hour + 1050, Procs: 1},
		},
		{ // a good request behind it changes nothing
			{Start: 2*model.Hour + 1050, End: 3*model.Hour + 7, Procs: 1},
			{Start: 5, End: 50, Procs: 1},
		},
	}
	for i, reqs := range failing {
		if _, err := tried.Commit(stampsOnly(tried), reqs); err == nil || errors.Is(err, ErrStale) {
			t.Fatalf("commit %d: err=%v, want a capacity failure", i, err)
		}
	}
	if tried.Version() != version {
		t.Fatalf("failed commits moved the version %d -> %d", version, tried.Version())
	}
	if got := before.Avail.String(); got != frozen {
		t.Fatalf("failed commits moved an earlier snapshot:\n  was %s\n  now %s", frozen, got)
	}
	// Carry on inside the same edits, then compare with never having tried.
	for i := 0; i < 40; i++ {
		start := model.Time(i) * 311
		for _, b := range []*Book{tried, control} {
			r, err := b.Reserve(start, start+400, 1)
			if err != nil {
				continue // the full slot; the comparison below covers both books refusing
			}
			if i%3 == 0 {
				if err := b.Release(r.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if got, want := tried.Snapshot().Avail.String(), control.Snapshot().Avail.String(); got != want {
		t.Fatalf("segments differ from never having tried:\n  tried   %s\n  control %s", got, want)
	}
	lt, lc := tried.List(), control.List()
	if len(lt) != len(lc) {
		t.Fatalf("ledger has %d rows, control %d", len(lt), len(lc))
	}
	for i := range lt {
		if lt[i] != lc[i] {
			t.Fatalf("ledger row %d: %+v, control %+v", i, lt[i], lc[i])
		}
	}
	if err := tried.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
