package server_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"resched/internal/api"
	"resched/internal/resbook"
	"resched/internal/server"
)

// conflictOnce makes the first commit attempt after it stale: the
// before-commit hook books one unrelated reservation, once.
func conflictOnce(t *testing.T, srv *server.Server, book *resbook.Book) {
	var fired atomic.Bool
	srv.SetBeforeCommitHook(func() {
		if fired.CompareAndSwap(false, true) {
			if _, err := book.Reserve(0, 60, 1); err != nil {
				t.Errorf("conflicting reserve: %v", err)
			}
		}
	})
}

// conflictAlways makes every commit attempt stale: the hook bumps the
// book's version, by a reserve and its release, before each one.
func conflictAlways(t *testing.T, srv *server.Server, book *resbook.Book) {
	srv.SetBeforeCommitHook(func() {
		res, err := book.Reserve(1_000_000, 1_000_010, 1)
		if err != nil {
			t.Errorf("conflicting Reserve: %v", err)
			return
		}
		if err := book.Release(res.ID); err != nil {
			t.Errorf("conflicting Release: %v", err)
		}
	})
}

// TestCommitRetryExhaustion drives the commit loop into permanent
// version conflict: the before-commit hook bumps the book's version
// before every commit attempt, so after MaxRetries recomputations the
// request must give up with 409 and an error naming the retry budget,
// leaving the book without the loser's reservations.
func TestCommitRetryExhaustion(t *testing.T) {
	const maxRetries = 3
	ts, srv, book := newTestServer(t, 16, server.Config{Workers: 2, Timeout: time.Minute, MaxRetries: maxRetries})
	conflictAlways(t, srv, book)

	versionBefore := book.Version()
	resp, raw := postJSON(t, ts.URL+"/v1/schedule", api.ScheduleRequest{DAG: testDAGJSON(t, 2), Commit: true})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("permanently conflicted commit: HTTP %d (%s), want 409", resp.StatusCode, raw)
	}
	var apiErr api.Error
	if err := json.Unmarshal(raw, &apiErr); err != nil {
		t.Fatalf("decoding error body %q: %v", raw, err)
	}
	if !strings.Contains(apiErr.Error, "version-conflict retries") {
		t.Errorf("error %q does not mention retry exhaustion", apiErr.Error)
	}

	// Every version bump came from the hook's reserve+release pairs:
	// the initial attempt plus maxRetries recomputes, two bumps each.
	if got, want := book.Version(), versionBefore+2*(maxRetries+1); got != want {
		t.Errorf("version = %d, want %d", got, want)
	}
	for _, r := range book.List() {
		if r.Start != 1_000_000 {
			t.Errorf("gave-up commit leaked reservation %+v", r)
		}
	}
	if err := book.CheckInvariants(); err != nil {
		t.Fatalf("invariants after exhaustion: %v", err)
	}
}

// TestCommitConflictRetry: a single version bump between snapshot and
// commit sends the request around the optimistic loop once, and the
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
