package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resched/internal/api"
	"resched/internal/resbook"
	"resched/internal/server"
)

// takeCapacity books every processor still free from the book's
// origin up to and including the first instant at which the whole
// cluster is free, one reservation per segment, and returns the IDs it
// booked. A schedule computed at the origin on any earlier snapshot
// starts its first task at or before that instant — nothing here
// returns processors in that range — so its commit no longer fits.
// Successive calls take successive windows.
func takeCapacity(book *resbook.Book) ([]string, error) {
	avail := book.Snapshot().Avail
	end, err := avail.EarliestFitChecked(book.Capacity(), 1, book.Origin())
	if err != nil {
		return nil, err
	}
	end++
	segs := avail.Segments()
	var ids []string
	for i, seg := range segs {
		if seg.Start >= end {
			break
		}
		segEnd := end
		if i+1 < len(segs) && segs[i+1].Start < end {
			segEnd = segs[i+1].Start
		}
		if seg.Free == 0 {
			continue
		}
		r, err := book.Reserve(seg.Start, segEnd, seg.Free)
		if err != nil {
			return ids, err
		}
		ids = append(ids, r.ID)
	}
	return ids, nil
}

// conflictOnce makes the first commit attempt after it stale: the
// before-commit hook takes the processors the schedule needs, once.
func conflictOnce(t *testing.T, srv *server.Server, book *resbook.Book) {
	var fired atomic.Bool
	srv.SetBeforeCommitHook(func() {
		if fired.CompareAndSwap(false, true) {
			if _, err := takeCapacity(book); err != nil {
				t.Errorf("conflicting reserve: %v", err)
			}
		}
	})
}

// conflictAlways makes every commit attempt stale: before each one the
// hook takes the processors the schedule needs, in the next window
// each time. It returns the IDs of every reservation the hook booked.
func conflictAlways(t *testing.T, srv *server.Server, book *resbook.Book) func() map[string]bool {
	var mu sync.Mutex
	taken := map[string]bool{}
	srv.SetBeforeCommitHook(func() {
		ids, err := takeCapacity(book)
		if err != nil {
			t.Errorf("conflicting Reserve: %v", err)
		}
		mu.Lock()
		for _, id := range ids {
			taken[id] = true
		}
		mu.Unlock()
	})
	return func() map[string]bool {
		mu.Lock()
		defer mu.Unlock()
		return taken
	}
}

// TestCommitRetryExhaustion drives the commit loop into permanent
// version conflict: the before-commit hook takes the schedule's
// processors before every commit attempt, so after MaxRetries recomputations the
// request must give up with 409 and an error naming the retry budget,
// leaving the book without the loser's reservations.
func TestCommitRetryExhaustion(t *testing.T) {
	const maxRetries = 3
	ts, srv, book := newTestServer(t, 16, server.Config{Workers: 2, Timeout: time.Minute, MaxRetries: maxRetries})
	hooked := conflictAlways(t, srv, book)

	versionBefore := book.Version()
	resp, raw := postJSON(t, ts.URL+"/v1/schedule", api.ScheduleRequest{DAG: testDAGJSON(t, 2), Commit: true})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("permanently conflicted commit: HTTP %d (%s), want 409", resp.StatusCode, raw)
	}
	var apiErr api.Error
	if err := json.Unmarshal(raw, &apiErr); err != nil {
		t.Fatalf("decoding error body %q: %v", raw, err)
	}
	if want := fmt.Sprintf("gave up after %d version-conflict retries", maxRetries); apiErr.Error != want {
		t.Errorf("error %q, want %q", apiErr.Error, want)
	}

	// Every version bump came from the hook's reservations, taken
	// before the initial attempt and each of maxRetries recomputes. On
	// this book each takeCapacity call books exactly one full-width
	// row, so the rows count the commit attempts.
	taken := hooked()
	if len(taken) != maxRetries+1 {
		t.Errorf("hook booked %d reservations, want exactly %d (one per commit attempt)", len(taken), maxRetries+1)
	}
	if got, want := book.Version(), versionBefore+uint64(maxRetries+1); got != want {
		t.Errorf("version = %d, want %d", got, want)
	}
	for _, r := range book.List() {
		if !taken[r.ID] {
			t.Errorf("gave-up commit leaked reservation %+v", r)
		}
	}
	if err := book.CheckInvariants(); err != nil {
		t.Fatalf("invariants after exhaustion: %v", err)
	}
}

// TestCommitConflictRetry: a single capacity conflict between snapshot
// and commit sends the request around the optimistic loop once, and the
// eventual success reports exactly that retry.
func TestCommitConflictRetry(t *testing.T) {
	ts, srv, book := newTestServer(t, 64, server.Config{})
	conflictOnce(t, srv, book)

	resp, raw := postJSON(t, ts.URL+"/v1/schedule",
		api.ScheduleRequest{DAG: testDAGJSON(t, 3), Q: 16, Commit: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
	var out api.ScheduleResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Committed || out.Retries != 1 {
		t.Errorf("committed=%v retries=%d, want committed after exactly 1 retry", out.Committed, out.Retries)
	}
	if err := book.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
