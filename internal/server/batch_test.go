package server_test

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"resched/internal/api"
	"resched/internal/profile"
	"resched/internal/server"
)

// batchOf builds a batch of n copies of the fork-join test DAG.
func batchOf(t *testing.T, n int, commit bool) api.BatchScheduleRequest {
	t.Helper()
	req := api.BatchScheduleRequest{Commit: commit}
	for i := 0; i < n; i++ {
		req.Jobs = append(req.Jobs, api.ScheduleRequest{DAG: testDAGJSON(t, 3), Q: 8})
	}
	return req
}

// postBatch posts a batch and decodes the 200 response.
func postBatch(t *testing.T, url string, req api.BatchScheduleRequest) api.BatchScheduleResponse {
	t.Helper()
	resp, raw := postJSON(t, url+"/v1/schedule/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
	var out api.BatchScheduleResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// nonEmpty counts the placements that occupy processors for a
// positive duration — the ones a commit books.
func nonEmpty(tasks []api.Placement) int {
	n := 0
	for _, pl := range tasks {
		if pl.End > pl.Start {
			n++
		}
	}
	return n
}

// TestBatchCommit: three jobs on a book too small to run them side by
// side must book through one commit, each job holding exactly the
// reservations of its own placements.
func TestBatchCommit(t *testing.T) {
	ts, _, book := newTestServer(t, 8, server.Config{})
	out := postBatch(t, ts.URL, batchOf(t, 3, true))

	if !out.Committed || out.Retries != 0 || len(out.Jobs) != 3 {
		t.Fatalf("batch outcome: committed=%v retries=%d jobs=%d", out.Committed, out.Retries, len(out.Jobs))
	}
	if book.Version() != 1 || out.Version != 1 {
		t.Errorf("book version %d, response version %d, want one commit", book.Version(), out.Version)
	}
	total := 0
	for i, job := range out.Jobs {
		if !job.Committed || job.Version != out.Version {
			t.Errorf("job %d: committed=%v version=%d", i, job.Committed, job.Version)
		}
		if got, want := len(job.ReservationIDs), nonEmpty(job.Tasks); got != want {
			t.Errorf("job %d: %d reservation IDs for %d non-empty placements", i, got, want)
		}
		total += len(job.ReservationIDs)
	}
	if got := len(book.List()); got != total {
		t.Errorf("book holds %d reservations, jobs report %d", got, total)
	}
	// Job i+1 was fitted against job i's staged placements, or the
	// commit would have oversubscribed the eight processors.
	if err := book.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDryRun: without commit the jobs are still staged against
// each other — all their placements fit one empty cluster together —
// and the book does not move.
func TestBatchDryRun(t *testing.T) {
	ts, _, book := newTestServer(t, 8, server.Config{})
	if _, err := book.Reserve(100_000, 100_060, 2); err != nil {
		t.Fatal(err)
	}
	listBefore, versionBefore := book.List(), book.Version()

	out := postBatch(t, ts.URL, batchOf(t, 3, false))
	if out.Committed || len(out.Jobs) != 3 {
		t.Fatalf("dry run: committed=%v jobs=%d", out.Committed, len(out.Jobs))
	}
	together := profile.New(8, 0)
	for i, job := range out.Jobs {
		if job.Committed || len(job.ReservationIDs) != 0 {
			t.Errorf("job %d: committed=%v ids=%v", i, job.Committed, job.ReservationIDs)
		}
		for _, pl := range job.Tasks {
			if pl.End <= pl.Start {
				continue
			}
			if err := together.Reserve(pl.Start, pl.End, pl.Procs); err != nil {
				t.Fatalf("job %d task %d overlaps an earlier job's placements: %v", i, pl.Task, err)
			}
		}
	}
	if !reflect.DeepEqual(book.List(), listBefore) || book.Version() != versionBefore {
		t.Errorf("dry run moved the book: version %d -> %d, %d -> %d reservations",
			versionBefore, book.Version(), len(listBefore), len(book.List()))
	}
}

// TestBatchValidation: a batch is rejected whole, before any
// scheduling, and the book stays as it was.
func TestBatchValidation(t *testing.T) {
	ts, _, book := newTestServer(t, 8, server.Config{})

	bad := batchOf(t, 3, true)
	bad.Jobs[1].DAG = json.RawMessage(`{"bad":true}`)
	cases := []struct {
		name   string
		req    api.BatchScheduleRequest
		prefix string
	}{
		{"malformed job 1", bad, "job 1:"},
		{"empty batch", api.BatchScheduleRequest{Commit: true}, "batch contains no jobs"},
	}
	for _, c := range cases {
		resp, raw := postJSON(t, ts.URL+"/v1/schedule/batch", c.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d (%s), want 400", c.name, resp.StatusCode, raw)
			continue
		}
		var apiErr api.Error
		if err := json.Unmarshal(raw, &apiErr); err != nil {
			t.Fatalf("%s: decoding error body %q: %v", c.name, raw, err)
		}
		if !strings.HasPrefix(apiErr.Error, c.prefix) {
			t.Errorf("%s: error %q, want prefix %q", c.name, apiErr.Error, c.prefix)
		}
	}
	if book.Version() != 0 || len(book.List()) != 0 {
		t.Errorf("rejected batches moved the book: version %d, %d reservations", book.Version(), len(book.List()))
	}
}

// TestBatchConflictRetry: a capacity conflict between snapshot and
// commit sends the whole batch around the optimistic loop once, and both the
// batch and every job in it report that retry.
func TestBatchConflictRetry(t *testing.T) {
	ts, srv, book := newTestServer(t, 8, server.Config{})
	conflictOnce(t, srv, book)

	out := postBatch(t, ts.URL, batchOf(t, 3, true))
	if !out.Committed || out.Retries != 1 {
		t.Errorf("batch committed=%v retries=%d, want committed after exactly 1 retry", out.Committed, out.Retries)
	}
	for i, job := range out.Jobs {
		if job.Retries != 1 {
			t.Errorf("job %d reports %d retries, batch reports 1", i, job.Retries)
		}
	}
	if err := book.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchRetryExhaustion: a batch that conflicts on every attempt
// gives up with 409 and books nothing.
func TestBatchRetryExhaustion(t *testing.T) {
	ts, srv, book := newTestServer(t, 8, server.Config{MaxRetries: 3})
	hooked := conflictAlways(t, srv, book)

	resp, raw := postJSON(t, ts.URL+"/v1/schedule/batch", batchOf(t, 3, true))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("permanently conflicted batch: HTTP %d (%s), want 409", resp.StatusCode, raw)
	}
	taken := hooked()
	for _, r := range book.List() {
		if !taken[r.ID] {
			t.Errorf("gave-up batch leaked reservation %+v", r)
		}
	}
	if err := book.CheckInvariants(); err != nil {
		t.Fatalf("invariants after exhaustion: %v", err)
	}
}
