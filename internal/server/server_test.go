package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resched/internal/api"
	"resched/internal/dag"
	"resched/internal/dagio"
	"resched/internal/model"
	"resched/internal/resbook"
	"resched/internal/server"
)

// newTestServer starts an httptest server over a fresh book.
func newTestServer(t *testing.T, capacity int, cfg server.Config) (*httptest.Server, *server.Server, *resbook.Book) {
	t.Helper()
	book := resbook.New(capacity, 0)
	cfg.Book = book
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, book
}

// testDAGJSON renders a small fork-join application in dagio format.
func testDAGJSON(t *testing.T, branches int) json.RawMessage {
	t.Helper()
	g := dag.New(branches + 2)
	src := g.AddTask(dag.Task{Name: "src", Seq: 2 * model.Minute, Alpha: 0.2})
	sink := g.AddTask(dag.Task{Name: "sink", Seq: 2 * model.Minute, Alpha: 0.2})
	for i := 0; i < branches; i++ {
		b := g.AddTask(dag.Task{Seq: 10 * model.Minute, Alpha: 0.1})
		g.MustAddEdge(src, b)
		g.MustAddEdge(b, sink)
	}
	var buf bytes.Buffer
	if err := dagio.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestScheduleDryRunAndCommit(t *testing.T) {
	ts, _, book := newTestServer(t, 32, server.Config{})
	dagJSON := testDAGJSON(t, 3)

	// Dry run: schedule computed, nothing booked.
	resp, raw := postJSON(t, ts.URL+"/v1/schedule", api.ScheduleRequest{DAG: dagJSON, Q: 16})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dry run: HTTP %d: %s", resp.StatusCode, raw)
	}
	var dry api.ScheduleResponse
	if err := json.Unmarshal(raw, &dry); err != nil {
		t.Fatal(err)
	}
	if dry.Algorithm != "BL_CPAR_BD_CPAR" {
		t.Errorf("default algorithm %q, want BL_CPAR_BD_CPAR", dry.Algorithm)
	}
	if len(dry.Tasks) != 5 || dry.Committed || len(dry.ReservationIDs) != 0 {
		t.Errorf("dry run response: %+v", dry)
	}
	if dry.Turnaround <= 0 {
		t.Errorf("turnaround %d, want > 0", dry.Turnaround)
	}
	if book.Version() != 0 {
		t.Errorf("dry run mutated the book to version %d", book.Version())
	}

	// Commit: reservations booked, version advanced.
	resp, raw = postJSON(t, ts.URL+"/v1/schedule", api.ScheduleRequest{DAG: dagJSON, Q: 16, Commit: true, BL: "BL_CPAR", BD: "BD_CPAR"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit: HTTP %d: %s", resp.StatusCode, raw)
	}
	var com api.ScheduleResponse
	if err := json.Unmarshal(raw, &com); err != nil {
		t.Fatal(err)
	}
	if !com.Committed || len(com.ReservationIDs) != 5 {
		t.Errorf("commit response: committed=%v ids=%v", com.Committed, com.ReservationIDs)
	}
	if com.Version != 1 {
		t.Errorf("post-commit version %d, want 1", com.Version)
	}
	if book.Version() != 1 {
		t.Errorf("book version %d, want 1", book.Version())
	}
	if err := book.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The committed schedule matches the dry run on the same (empty)
	// book.
	if com.Completion != dry.Completion {
		t.Errorf("commit completion %d != dry-run completion %d", com.Completion, dry.Completion)
	}
}

func TestDeadlineEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, 32, server.Config{})
	dagJSON := testDAGJSON(t, 3)

	// Generous deadline: met.
	resp, raw := postJSON(t, ts.URL+"/v1/deadline", api.DeadlineRequest{
		DAG: dagJSON, Algo: "DL_BD_CPAR", Deadline: 10 * model.Hour, Q: 16,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline: HTTP %d: %s", resp.StatusCode, raw)
	}
	var met api.ScheduleResponse
	if err := json.Unmarshal(raw, &met); err != nil {
		t.Fatal(err)
	}
	if met.Deadline != 10*model.Hour {
		t.Errorf("deadline %d, want %d", met.Deadline, 10*model.Hour)
	}
	if met.Completion > met.Deadline {
		t.Errorf("completion %d after deadline %d", met.Completion, met.Deadline)
	}

	// Tightest search.
	resp, raw = postJSON(t, ts.URL+"/v1/deadline", api.DeadlineRequest{
		DAG: dagJSON, Algo: "DL_BD_CPAR", Tightest: true, Q: 16,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tightest: HTTP %d: %s", resp.StatusCode, raw)
	}
	var tight api.ScheduleResponse
	if err := json.Unmarshal(raw, &tight); err != nil {
		t.Fatal(err)
	}
	if tight.Deadline <= 0 || tight.Deadline > met.Deadline {
		t.Errorf("tightest deadline %d outside (0, %d]", tight.Deadline, met.Deadline)
	}

	// Infeasible deadline: 422.
	resp, raw = postJSON(t, ts.URL+"/v1/deadline", api.DeadlineRequest{
		DAG: dagJSON, Algo: "DL_BD_CPAR", Deadline: model.Minute, Q: 16,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible deadline: HTTP %d: %s", resp.StatusCode, raw)
	}

	// Missing deadline without tightest: 400.
	resp, _ = postJSON(t, ts.URL+"/v1/deadline", api.DeadlineRequest{DAG: dagJSON, Algo: "DL_BD_CPAR"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing deadline: HTTP %d", resp.StatusCode)
	}
}

func TestReservationLifecycleOverHTTP(t *testing.T) {
	ts, _, book := newTestServer(t, 16, server.Config{})

	resp, raw := postJSON(t, ts.URL+"/v1/reservations", api.ReservationRequest{Start: 100, End: 200, Procs: 4})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d: %s", resp.StatusCode, raw)
	}
	var res api.Reservation
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != "pending" || res.ID == "" {
		t.Errorf("created reservation: %+v", res)
	}

	// Activate.
	resp, raw = postJSON(t, ts.URL+"/v1/reservations/"+res.ID+"/activate", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("activate: HTTP %d: %s", resp.StatusCode, raw)
	}
	var act api.Reservation
	if err := json.Unmarshal(raw, &act); err != nil {
		t.Fatal(err)
	}
	if act.Status != "active" {
		t.Errorf("after activate: %+v", act)
	}

	// Get and list.
	var got api.Reservation
	if r := getJSON(t, ts.URL+"/v1/reservations/"+res.ID, &got); r.StatusCode != http.StatusOK || got.Status != "active" {
		t.Errorf("get: HTTP %d, %+v", r.StatusCode, got)
	}
	var list []api.Reservation
	if r := getJSON(t, ts.URL+"/v1/reservations", &list); r.StatusCode != http.StatusOK || len(list) != 1 {
		t.Errorf("list: HTTP %d, %d entries", r.StatusCode, len(list))
	}

	// Release via DELETE.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/reservations/"+res.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: HTTP %d", dresp.StatusCode)
	}
	if free := book.Snapshot().Avail.FreeAt(150); free != 16 {
		t.Errorf("capacity not returned after delete: %d free", free)
	}

	// Double delete: 409. Unknown: 404.
	dresp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusConflict {
		t.Errorf("double delete: HTTP %d, want 409", dresp2.StatusCode)
	}
	var missing api.Error
	if r := getJSON(t, ts.URL+"/v1/reservations/r999999", &missing); r.StatusCode != http.StatusNotFound {
		t.Errorf("get unknown: HTTP %d, want 404", r.StatusCode)
	}

	// Oversubscription: 409.
	resp, _ = postJSON(t, ts.URL+"/v1/reservations", api.ReservationRequest{Start: 0, End: 10, Procs: 17})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("oversubscribed create: HTTP %d, want 409", resp.StatusCode)
	}
	if err := book.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestProfileEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, 16, server.Config{})
	postJSON(t, ts.URL+"/v1/reservations", api.ReservationRequest{Start: 100, End: 200, Procs: 4})

	var prof api.ProfileResponse
	if r := getJSON(t, ts.URL+"/v1/profile", &prof); r.StatusCode != http.StatusOK {
		t.Fatalf("profile: HTTP %d", r.StatusCode)
	}
	if prof.Capacity != 16 || prof.Version != 1 {
		t.Errorf("profile: capacity %d version %d", prof.Capacity, prof.Version)
	}
	if len(prof.Segments) != 3 {
		t.Errorf("profile has %d segments, want 3 (free, busy, free)", len(prof.Segments))
	}
	if len(prof.Reservations) != 1 || prof.Reservations[0].Status != "pending" {
		t.Errorf("profile reservations: %+v", prof.Reservations)
	}
}

func TestRequestValidation(t *testing.T) {
	ts, _, _ := newTestServer(t, 16, server.Config{MaxBody: 4096})
	dagJSON := testDAGJSON(t, 2)

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: HTTP %d, want 400", resp.StatusCode)
	}

	// Unknown fields are rejected.
	resp, err = http.Post(ts.URL+"/v1/schedule", "application/json",
		strings.NewReader(`{"dag": {"tasks": [], "edges": []}, "surprise": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}

	// Unknown heuristic names.
	r2, _ := postJSON(t, ts.URL+"/v1/schedule", api.ScheduleRequest{DAG: dagJSON, BL: "BL_BOGUS"})
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown BL: HTTP %d, want 400", r2.StatusCode)
	}
	r2, _ = postJSON(t, ts.URL+"/v1/deadline", api.DeadlineRequest{DAG: dagJSON, Algo: "DL_BOGUS", Tightest: true})
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown DL: HTTP %d, want 400", r2.StatusCode)
	}

	// now before the book's origin.
	r2, _ = postJSON(t, ts.URL+"/v1/schedule", api.ScheduleRequest{DAG: dagJSON, Now: -100})
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("now before origin: HTTP %d, want 400", r2.StatusCode)
	}

	// Oversized body: 413.
	huge := api.ScheduleRequest{DAG: json.RawMessage(fmt.Sprintf(`{"tasks": [%s], "edges": []}`,
		strings.Repeat(`{"seq": 60, "alpha": 0.5},`, 200)+`{"seq": 60, "alpha": 0.5}`))}
	r2, _ = postJSON(t, ts.URL+"/v1/schedule", huge)
	if r2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: HTTP %d, want 413", r2.StatusCode)
	}

	// Unknown endpoint: JSON 404.
	var e api.Error
	if r := getJSON(t, ts.URL+"/v1/nope", &e); r.StatusCode != http.StatusNotFound || e.Error == "" {
		t.Errorf("unknown endpoint: HTTP %d, %+v", r.StatusCode, e)
	}

	// Health check.
	if r := getJSON(t, ts.URL+"/healthz", nil); r.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", r.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, 16, server.Config{})
	dagJSON := testDAGJSON(t, 2)
	postJSON(t, ts.URL+"/v1/schedule", api.ScheduleRequest{DAG: dagJSON})
	postJSON(t, ts.URL+"/v1/schedule", api.ScheduleRequest{DAG: dagJSON, BL: "BL_BOGUS"})

	var m struct {
		Requests     uint64  `json:"requests"`
		Status2xx    uint64  `json:"status_2xx"`
		Status4xx    uint64  `json:"status_4xx"`
		LatencyCount uint64  `json:"latency_count"`
		LatencyP50   float64 `json:"latency_p50_ms"`
		LatencyP99   float64 `json:"latency_p99_ms"`
	}
	if r := getJSON(t, ts.URL+"/debug/metrics", &m); r.StatusCode != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", r.StatusCode)
	}
	if m.Requests < 2 || m.Status2xx < 1 || m.Status4xx < 1 || m.LatencyCount < 2 {
		t.Errorf("metrics after traffic: %+v", m)
	}
	if m.LatencyP99 < m.LatencyP50 {
		t.Errorf("p99 %v < p50 %v", m.LatencyP99, m.LatencyP50)
	}
}

// TestConcurrentClients is the serving-path acceptance test: 8
// concurrent HTTP clients fire schedule-and-commit plus direct
// reservation traffic at one daemon while an interferer keeps taking
// the processors schedules start on, so commits computed on a snapshot
// go stale and the optimistic-concurrency loop must retry. Afterwards
// the book must account for every booking exactly once.
func TestConcurrentClients(t *testing.T) {
	// Scheduling a small DAG takes microseconds, so on a single CPU
	// two clients essentially never overlap inside the
	// snapshot→commit window on their own. A before-commit hook makes
	// staleness deterministic instead of a timing coincidence: the
	// first conflictBudget commit attempts find their processors taken
	// and must recompute. MaxRetries is raised so no single request can
	// exhaust its budget against the hook and fail with 409.
	ts, srv, book := newTestServer(t, 64, server.Config{Workers: 8, Timeout: time.Minute, MaxRetries: 1 << 20})

	const clients = 8
	const rounds = 6
	const conflictBudget = 12
	var conflictsLeft, hookRows atomic.Int64
	conflictsLeft.Store(conflictBudget)
	srv.SetBeforeCommitHook(func() {
		if conflictsLeft.Add(-1) >= 0 {
			// Another client may book in between and refuse one of the
			// hook's reservations; the ones it did book stay Pending and
			// are counted in the ledger accounting below.
			ids, _ := takeCapacity(book)
			hookRows.Add(int64(len(ids)))
		}
	})

	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	var totalBooked atomic.Int64

	worker := func(id int) {
		defer wg.Done()
		dagJSON := testDAGJSON(t, 2+id%3)
		hc := &http.Client{Timeout: time.Minute}
		for round := 0; round < rounds; round++ {
			// Schedule and commit.
			payload, _ := json.Marshal(api.ScheduleRequest{DAG: dagJSON, Q: 32, Commit: true})
			resp, err := hc.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(payload))
			if err != nil {
				errs <- err
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d round %d: HTTP %d: %s", id, round, resp.StatusCode, raw)
				return
			}
			var sr api.ScheduleResponse
			if err := json.Unmarshal(raw, &sr); err != nil {
				errs <- err
				return
			}
			totalBooked.Add(int64(len(sr.ReservationIDs)))

			// Direct reservation far in the future, then release it.
			start := model.Time(1_000_000 + id*1000 + round*10)
			payload, _ = json.Marshal(api.ReservationRequest{Start: start, End: start + 5, Procs: 1})
			resp, err = hc.Post(ts.URL+"/v1/reservations", "application/json", bytes.NewReader(payload))
			if err != nil {
				errs <- err
				return
			}
			var res api.Reservation
			err = json.NewDecoder(resp.Body).Decode(&res)
			resp.Body.Close()
			if err != nil || res.ID == "" {
				errs <- fmt.Errorf("client %d: reservation create failed: %v %+v", id, err, res)
				return
			}
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/reservations/"+res.ID, nil)
			dresp, err := hc.Do(req)
			if err != nil {
				errs <- err
				return
			}
			dresp.Body.Close()
			if dresp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: release: HTTP %d", id, dresp.StatusCode)
				return
			}
		}
	}

	for i := 0; i < clients; i++ {
		wg.Add(1)
		go worker(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every committed reservation is accounted for exactly once.
	wantBooked := int(totalBooked.Load() + hookRows.Load())
	var pending, released int
	for _, r := range book.List() {
		switch r.Status.String() {
		case "pending":
			pending++
		case "released":
			released++
		}
	}
	if pending != wantBooked {
		t.Errorf("book holds %d pending reservations, clients and hook committed %d", pending, wantBooked)
	}
	if err := book.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := book.Snapshot().Avail.Check(); err != nil {
		t.Fatal(err)
	}

	var m struct {
		CommitRetries uint64 `json:"commit_retries"`
		Requests      uint64 `json:"requests"`
	}
	getJSON(t, ts.URL+"/debug/metrics", &m)
	if m.CommitRetries == 0 {
		t.Error("no version-conflict retries observed under 8 concurrent clients")
	}
	t.Logf("concurrent clients: %d requests, %d commit retries, %d pending, %d released",
		m.Requests, m.CommitRetries, pending, released)
}
