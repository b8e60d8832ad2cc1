package server_test

import (
	"bytes"
	"math/rand"
	"net/http/httptest"
	"testing"

	"resched/internal/api"
	"resched/internal/model"
	"resched/internal/profile"
	"resched/internal/resbook"
	"resched/internal/server"
)

// TestFlatAndPersistentBooksServeIdentically: a large flat snapshot is
// scheduled on directly, as a persistent one is. Two books hold the
// same reservations — well past profile.AutoTreeThreshold segments —
// one on the flat oracle backend, one on the persistent default; every
// /v1/schedule and /v1/schedule/batch response, dry run and commit,
// must be byte for byte the same from both, and so must the books
// afterwards.
func TestFlatAndPersistentBooksServeIdentically(t *testing.T) {
	const capacity = 32
	flatBook, err := resbook.NewShardedFlat(capacity, 0, 4, model.Day)
	if err != nil {
		t.Fatal(err)
	}
	persBook, err := resbook.NewSharded(capacity, 0, 4, model.Day)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for flatBook.Snapshot().Avail.NumSegments() < 2*profile.AutoTreeThreshold {
		start := model.Time(rng.Int63n(int64(2 * model.Day)))
		end := start + model.Time(rng.Int63n(int64(2*model.Hour))+5*model.Minute)
		procs := 1 + rng.Intn(capacity/2)
		_, errF := flatBook.Reserve(start, end, procs)
		_, errP := persBook.Reserve(start, end, procs)
		if (errF == nil) != (errP == nil) {
			t.Fatalf("seeding [%d,%d)x%d: flat err %v, persistent err %v", start, end, procs, errF, errP)
		}
	}
	if _, ok := flatBook.Snapshot().Avail.(*profile.Profile); !ok {
		t.Fatalf("flat book snapshots as %T", flatBook.Snapshot().Avail)
	}
	if _, ok := persBook.Snapshot().Avail.(*profile.PersistentProfile); !ok {
		t.Fatalf("persistent book snapshots as %T", persBook.Snapshot().Avail)
	}

	urls := make([]string, 2)
	for i, book := range []*resbook.Book{flatBook, persBook} {
		srv, err := server.New(server.Config{Book: book})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	same := func(name, path string, req any) {
		t.Helper()
		respF, rawF := postJSON(t, urls[0]+path, req)
		respP, rawP := postJSON(t, urls[1]+path, req)
		if respF.StatusCode != respP.StatusCode || !bytes.Equal(rawF, rawP) {
			t.Fatalf("%s: flat book HTTP %d %s\npersistent book HTTP %d %s",
				name, respF.StatusCode, rawF, respP.StatusCode, rawP)
		}
	}
	for _, commit := range []bool{false, true} {
		for _, branches := range []int{3, 6} {
			same("schedule", "/v1/schedule",
				api.ScheduleRequest{DAG: testDAGJSON(t, branches), Q: 16, Commit: commit})
		}
		same("batch", "/v1/schedule/batch", batchOf(t, 3, commit))
	}

	if flatBook.Version() != persBook.Version() || flatBook.Version() == 0 {
		t.Fatalf("versions: flat %d, persistent %d; want equal and committed", flatBook.Version(), persBook.Version())
	}
	if f, p := flatBook.Snapshot().Avail.String(), persBook.Snapshot().Avail.String(); f != p {
		t.Fatalf("books diverged after the commits:\nflat       %s\npersistent %s", f, p)
	}
}
