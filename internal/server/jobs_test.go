package server_test

// Serving-layer tests for the online /v1/jobs surface and for the
// reservation lifecycle driven through a *sharded* book — the
// Pending→Active→Released transitions, including invalid-transition
// and double-release error paths, exercised over HTTP.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"resched/internal/api"
	"resched/internal/lifecycle"
	"resched/internal/model"
	"resched/internal/resbook"
	"resched/internal/server"
)

// newOnlineServer builds an engine over a book and a server
// exposing it. The engine is driven manually (AdvanceTo) so tests are
// deterministic.
func newOnlineServer(t *testing.T, capacity int) (*httptest.Server, *lifecycle.Engine) {
	t.Helper()
	book := resbook.New(capacity, 0)
	eng, err := lifecycle.New(lifecycle.Config{Book: book, Backfill: true, StarveAttempts: 50, StarveAge: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Book: book, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

func advanceEngine(t *testing.T, eng *lifecycle.Engine, now model.Time) {
	t.Helper()
	if err := eng.AdvanceTo(context.Background(), now); err != nil {
		t.Fatalf("AdvanceTo(%d): %v", now, err)
	}
}

// TestJobsSurface is the serving-layer acceptance path: submit over
// HTTP, place through the engine, and read back a forecast with the
// earliest feasible start and the processor deficit for a job that
// remains queued.
func TestJobsSurface(t *testing.T) {
	ts, eng := newOnlineServer(t, 8)

	resp, raw := postJSON(t, ts.URL+"/v1/jobs", api.JobSubmitRequest{Procs: 6, Duration: 1000})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, raw)
	}
	var wide api.Job
	if err := json.Unmarshal(raw, &wide); err != nil {
		t.Fatal(err)
	}
	if wide.State != "queued" || wide.ID == "" {
		t.Fatalf("submitted job = %+v, want queued with ID", wide)
	}
	advanceEngine(t, eng, 0)

	resp, raw = postJSON(t, ts.URL+"/v1/jobs", api.JobSubmitRequest{Procs: 4, Duration: 50})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, raw)
	}
	var blocked api.Job
	if err := json.Unmarshal(raw, &blocked); err != nil {
		t.Fatal(err)
	}
	advanceEngine(t, eng, 0) // 4 > 2 free: stays queued

	var got api.Job
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+wide.ID, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("get status = %d", resp.StatusCode)
	}
	if got.State != "running" || got.ReservationID == "" {
		t.Fatalf("wide job = %+v, want running with reservation", got)
	}

	var fc api.Forecast
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+blocked.ID+"/forecast", &fc); resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast status = %d", resp.StatusCode)
	}
	if fc.EarliestStart != 1000 {
		t.Fatalf("forecast earliest start = %d, want 1000", fc.EarliestStart)
	}
	if fc.Deficit != 2 {
		t.Fatalf("forecast deficit = %d, want 2", fc.Deficit)
	}
	if fc.State != "queued" || len(fc.Remedies) == 0 || fc.Version == 0 {
		t.Fatalf("forecast = %+v", fc)
	}

	var list []api.Job
	if resp := getJSON(t, ts.URL+"/v1/jobs", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	if len(list) != 2 {
		t.Fatalf("list = %d jobs, want 2", len(list))
	}

	var e api.Error
	if resp := getJSON(t, ts.URL+"/v1/jobs/nope", &e); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/nope/forecast", &e); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown forecast status = %d", resp.StatusCode)
	}

	var m struct {
		Engine *api.EngineStats `json:"engine"`
	}
	if resp := getJSON(t, ts.URL+"/debug/metrics", &m); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if m.Engine == nil {
		t.Fatal("metrics missing engine stats")
	}
	if m.Engine.Arrivals != 2 || m.Engine.QueueDepth != 1 || m.Engine.Placements != 1 {
		t.Fatalf("engine stats = %+v", *m.Engine)
	}
}

// TestJobsDisabledWithoutEngine: the /v1/jobs surface answers 503 on
// daemons not running -online.
func TestJobsDisabledWithoutEngine(t *testing.T) {
	ts, _, _ := newTestServer(t, 8, server.Config{})
	var e api.Error
	if resp := getJSON(t, ts.URL+"/v1/jobs", &e); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("list status = %d, want 503", resp.StatusCode)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", api.JobSubmitRequest{Procs: 1, Duration: 10})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit status = %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/x/forecast", &e); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("forecast status = %d, want 503", resp.StatusCode)
	}
}

func TestJobSubmitValidation(t *testing.T) {
	ts, _ := newOnlineServer(t, 8)
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", api.JobSubmitRequest{Procs: 99, Duration: 10})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized job status = %d, body %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/jobs", api.JobSubmitRequest{Procs: 1, Duration: 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero-duration status = %d, body %s", resp.StatusCode, raw)
	}
}

// TestReservationLifecycleSharded drives Pending→Active→Released over
// HTTP through a book built by NewSharded, as the benchmark module
// builds its books, and checks the invalid-transition and
// double-release error paths.
func TestReservationLifecycleSharded(t *testing.T) {
	book, err := resbook.NewSharded(4, 0, 4, model.Hour)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Book: book})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, raw := postJSON(t, ts.URL+"/v1/reservations",
		api.ReservationRequest{Start: 30 * model.Minute, End: 90 * model.Minute, Procs: 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d, body %s", resp.StatusCode, raw)
	}
	var res api.Reservation
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != "pending" {
		t.Fatalf("created status = %q, want pending", res.Status)
	}

	activateURL := fmt.Sprintf("%s/v1/reservations/%s/activate", ts.URL, res.ID)
	resp, raw = postJSON(t, activateURL, struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("activate status = %d, body %s", resp.StatusCode, raw)
	}
	var activated api.Reservation
	if err := json.Unmarshal(raw, &activated); err != nil {
		t.Fatal(err)
	}
	if activated.Status != "active" {
		t.Fatalf("activated status = %q, want active", activated.Status)
	}

	// Activating an Active reservation is an idempotent no-op.
	if resp, raw = postJSON(t, activateURL, struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-activate status = %d, body %s", resp.StatusCode, raw)
	}

	del := func() int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/reservations/"+res.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}
	if code := del(); code != http.StatusOK {
		t.Fatalf("release status = %d", code)
	}
	// Double release and activate-after-release are invalid
	// transitions: 409.
	if code := del(); code != http.StatusConflict {
		t.Fatalf("double release status = %d, want 409", code)
	}
	if resp, raw = postJSON(t, activateURL, struct{}{}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("activate released status = %d, body %s", resp.StatusCode, raw)
	}
	// Unknown IDs: 404.
	resp, _ = postJSON(t, ts.URL+"/v1/reservations/zzz/activate", struct{}{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("activate unknown status = %d, want 404", resp.StatusCode)
	}
	if err := book.CheckInvariants(); err != nil {
		t.Fatalf("book invariants: %v", err)
	}
}
