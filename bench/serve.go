package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"resched/internal/api"
	"resched/internal/core"
	"resched/internal/cpa"
	"resched/internal/dag"
	"resched/internal/daggen"
	"resched/internal/dagio"
	"resched/internal/model"
	"resched/internal/profile"
	"resched/internal/resbook"
	"resched/internal/server"
)

// serveRequest is one prepared POST /v1/schedule.
type serveRequest struct {
	body []byte // wire form, JSON or binary
	dag  []byte // the DAG blob inside body
	now  model.Time
	http *http.Request // built once; every round rewinds its body
	rd   *bytes.Reader
	rc   io.ReadCloser // rd as a request body; the server wraps Body, so every post puts it back
}

// serveWorkload drives server.Handler().ServeHTTP in process, one
// closed-loop caller: a grid client waits for its schedule before it
// books the next application.
type serveWorkload struct {
	commit bool // book the schedule, then release it so the book stays in steady state
	binary bool // binary codec both ways; JSON otherwise
	q      int

	newBook  func() (*resbook.Book, error) // set when every round gets a fresh book
	book     *resbook.Book
	handler  http.Handler
	ping     *http.Request    // GET /healthz: the server's per-request envelope and nothing else
	base     resbook.Snapshot // the schedule every operation starts from
	baseSegs []profile.Segment
	seeds    []resbook.Request // the competing reservations the book is seeded with
	seeded   []string          // and their IDs
	seedTime time.Duration
	reqs     []serveRequest

	rw        respWriter
	resp      api.ScheduleResponse
	kept      []api.ScheduleResponse
	turn      float64
	cpuh      float64
	retries   int // version-conflict retries the server reported
	stale     int // stale commits of the staged replay
	respBytes int

	// staged-replay scratch, mirroring what the server pools
	prof *profile.Profile
	enc  *json.Encoder
	buf  bytes.Buffer
	bin  []byte
}

// respWriter is a reusable in-memory http.ResponseWriter: sending a
// request allocates nothing on the harness's side. Decoding the reply
// does, as any client's would, inside the round's wall time and
// allocation counts and outside the operation's latency — 58 of
// serve_commit's 8476 allocations and 57 of its 2410 µs per operation,
// 3 of serve_dryrun_small's 112 and 0.8 of its 136 µs (README.md,
// "Measurement rules").
type respWriter struct {
	hdr  http.Header
	body bytes.Buffer
	code int
}

func (w *respWriter) Header() http.Header         { return w.hdr }
func (w *respWriter) WriteHeader(code int)        { w.code = code }
func (w *respWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *respWriter) reset() {
	clear(w.hdr)
	w.body.Reset()
	w.code = http.StatusOK
}

// newServeCommit builds the committing workload: a 256-processor book
// in 8 shards of 45 days holding ~60k reservations, built afresh for
// every round, and 10 DAGs per spec of the paper's 40-spec grid, each
// posted as JSON with commit=true.
func newServeCommit(seed int64, scale float64) (runner, error) {
	master := rand.New(rand.NewSource(masterSeed))
	draw := rand.New(rand.NewSource(seed))

	epoch := model.Duration(math.Max(float64(model.Day), 45*float64(model.Day)*scale))
	horizon := 8 * epoch
	w := &serveWorkload{commit: true, q: 128, newBook: func() (*resbook.Book, error) {
		return resbook.NewSharded(256, 0, 8, epoch)
	}}
	var err error
	if w.book, err = w.newBook(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	// Reservation starts are uniform over the horizon, runtimes
	// lognormal around Grid'5000's 1.84 h mean, widths powers of two up
	// to 64: about half the machine is booked at any time. A draw that
	// does not fit is skipped.
	for i, n := 0, int(66000*scale); i < n; i++ {
		start := model.Time(master.Int63n(int64(horizon)))
		dur := model.Duration(math.Exp(math.Log(1.84*float64(model.Hour)) - 0.98 + 1.4*master.NormFloat64()))
		dur = max(model.Minute, min(dur, 3*model.Day))
		if err := w.seedReservation(start, dur, 1<<master.Intn(7)); err != nil {
			return nil, err
		}
	}
	w.seedTime = time.Since(t0)

	specs := daggen.ParamGrid()
	for i, n := 0, max(4, int(400*scale)); i < n; i++ {
		g := daggen.MustGenerate(specs[i%len(specs)], master)
		now := model.Time(float64(horizon)*(0.02+0.78*master.Float64())) + draw.Int63n(int64(jitter))
		if err := w.addRequest(g, now); err != nil {
			return nil, err
		}
	}
	return w.finish()
}

// newServeDryrun builds the small dry-run workload: a single-shard
// 64-processor book with ~40 reservations over a week (under
// profile.AutoTreeThreshold, so snapshots take the flat copy path) and
// DAGs of 10 and 25 tasks posted in the binary codec with commit=false.
func newServeDryrun(seed int64, scale float64) (runner, error) {
	master := rand.New(rand.NewSource(masterSeed))
	draw := rand.New(rand.NewSource(seed))

	w := &serveWorkload{binary: true, q: 48, book: resbook.New(64, 0)}
	t0 := time.Now()
	for i := 0; i < 44; i++ {
		start := model.Time(master.Int63n(int64(7 * model.Day)))
		dur := model.Hour + model.Duration(master.Int63n(int64(7*model.Hour)))
		if err := w.seedReservation(start, dur, 4+master.Intn(21)); err != nil {
			return nil, err
		}
	}
	w.seedTime = time.Since(t0)

	spec := daggen.Default()
	for i, n := 0, max(4, int(7000*scale)); i < n; i++ {
		spec.N = 10 + 15*(i%2)
		g := daggen.MustGenerate(spec, master)
		now := master.Int63n(int64(4*model.Day)) + draw.Int63n(int64(jitter))
		if err := w.addRequest(g, now); err != nil {
			return nil, err
		}
	}
	return w.finish()
}

// seedReservation books and activates one competing reservation,
// skipping a draw the book has no room for.
func (w *serveWorkload) seedReservation(start model.Time, dur model.Duration, procs int) error {
	r, err := w.book.Reserve(start, start+dur, procs)
	if err != nil {
		return nil // oversubscribed instant: the draw is dropped
	}
	w.seeds = append(w.seeds, resbook.Request{Start: start, End: start + dur, Procs: procs})
	w.seeded = append(w.seeded, r.ID)
	return w.book.Activate(r.ID)
}

// addRequest serializes g as one schedule request made at now.
func (w *serveWorkload) addRequest(g *dag.Graph, now model.Time) error {
	var raw, compact bytes.Buffer
	if err := dagio.Write(&raw, g); err != nil {
		return err
	}
	if err := json.Compact(&compact, raw.Bytes()); err != nil {
		return err
	}
	blob := compact.Bytes()
	var err error
	req := api.ScheduleRequest{DAG: blob, Now: now, Q: w.q, Commit: w.commit}
	rq := serveRequest{dag: blob, now: now}
	if w.binary {
		rq.body = req.AppendBinary(nil)
	} else if rq.body, err = json.Marshal(req); err != nil {
		return err
	}
	rq.rd = bytes.NewReader(rq.body)
	rq.rc = io.NopCloser(rq.rd)
	rq.http = httptest.NewRequest(http.MethodPost, "/v1/schedule", rq.rd)
	if w.binary {
		rq.http.Header.Set("Content-Type", api.ContentTypeBinary)
		rq.http.Header.Set("Accept", api.ContentTypeBinary)
	} else {
		rq.http.Header.Set("Content-Type", "application/json")
	}
	w.reqs = append(w.reqs, rq)
	return nil
}

// serve stands a server up in front of the book.
func (w *serveWorkload) serve() error {
	srv, err := server.New(server.Config{Book: w.book})
	if err != nil {
		return err
	}
	w.handler = srv.Handler()
	w.base = w.book.Snapshot()
	return nil
}

// finish completes set-up.
func (w *serveWorkload) finish() (runner, error) {
	if err := w.serve(); err != nil {
		return nil, err
	}
	w.ping = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w.baseSegs = w.base.Avail.Segments()
	w.rw.hdr = make(http.Header)
	w.prof = &profile.Profile{}
	w.enc = json.NewEncoder(&w.buf)
	return w, nil
}

func (w *serveWorkload) ops() int { return len(w.reqs) }

// post sends request i through the handler and returns its latency.
// tr, when set, gets the handler's span.
func (w *serveWorkload) post(i int, tr *tracer) time.Duration {
	rq := &w.reqs[i]
	rq.rd.Reset(rq.body)
	rq.http.Body = rq.rc
	w.rw.reset()
	tr.begin("server.handler")
	t0 := time.Now()
	w.handler.ServeHTTP(&w.rw, rq.http)
	d := time.Since(t0)
	tr.end()
	return d
}

// receive decodes the reply to the last post into w.resp, as a client
// must to learn its reservation IDs. It reports whether the operation
// succeeded.
func (w *serveWorkload) receive() bool {
	if w.rw.code != http.StatusOK {
		return false
	}
	w.resp = api.ScheduleResponse{Tasks: w.resp.Tasks[:0], ReservationIDs: w.resp.ReservationIDs[:0]}
	var err error
	if w.binary {
		err = w.resp.UnmarshalBinary(w.rw.body.Bytes())
	} else {
		err = json.Unmarshal(w.rw.body.Bytes(), &w.resp)
	}
	return err == nil && w.resp.Committed == w.commit
}

// release returns the reservations of the last reply to the book.
func (w *serveWorkload) release() bool {
	ok := true
	for _, id := range w.resp.ReservationIDs {
		if err := w.book.Release(id); err != nil {
			ok = false
		}
	}
	return ok
}

func (w *serveWorkload) round(lat []time.Duration, keep bool) (roundOutcome, error) {
	var out roundOutcome
	if keep {
		w.kept = w.kept[:0]
		w.turn, w.cpuh, w.retries, w.respBytes = 0, 0, 0, 0
	}
	h := newChecksum()
	t0 := time.Now()
	for i := range w.reqs {
		lat[i] = w.post(i, nil)
		if !w.receive() || !w.release() {
			out.failed++
			continue
		}
		h.schedule(w.resp.Turnaround, w.resp.CPUHours, len(w.resp.Tasks), func(t int) (int, model.Time, model.Time) {
			pl := w.resp.Tasks[t]
			return pl.Procs, pl.Start, pl.End
		})
		if keep {
			k := w.resp
			k.Tasks = append([]api.Placement(nil), k.Tasks...)
			k.ReservationIDs = append([]string(nil), k.ReservationIDs...)
			w.kept = append(w.kept, k)
			w.turn += float64(k.Turnaround)
			w.cpuh += k.CPUHours
			w.retries += k.Retries
			w.respBytes += w.rw.body.Len()
		}
	}
	out.wall = time.Since(t0)
	out.sum = h.sum()
	return out, nil
}

// check verifies every kept reply with core.Scheduler.Verify against
// the snapshot it was computed on: releases restore the book after each
// operation, so that is the base snapshot for all of them.
func (w *serveWorkload) check() (int, error) {
	if len(w.kept) != len(w.reqs) {
		return len(w.reqs) - len(w.kept), nil // failed operations, already counted by round
	}
	wrong := 0
	for i, resp := range w.kept {
		g, err := dagio.Read(bytes.NewReader(w.reqs[i].dag))
		if err != nil {
			return 0, err
		}
		sch, err := core.NewScheduler(g)
		if err != nil {
			return 0, err
		}
		sched := core.Schedule{Now: resp.Now, Tasks: make([]core.Placement, len(resp.Tasks))}
		booked := 0
		for _, pl := range resp.Tasks {
			sched.Tasks[pl.Task] = core.Placement{Procs: pl.Procs, Start: pl.Start, End: pl.End}
			if pl.End > pl.Start {
				booked++
			}
		}
		env := core.Env{P: w.book.Capacity(), Now: w.reqs[i].now, Avail: w.base.Avail, Q: w.q}
		switch {
		case sch.Verify(env, &sched) != nil,
			resp.Turnaround != sched.Turnaround(),
			w.commit && len(resp.ReservationIDs) != booked:
			wrong++
		}
	}
	return wrong, w.auditLedger()
}

// auditLedger checks the book's ledger against its profile at full
// scale, once a run: the reservations still held must be the seeded
// ones and no others, and replaying them onto an empty profile must
// give the book's schedule segment for segment. This is the ledger
// half of Book.CheckInvariants on a tree profile — the book's own
// replay, onto a flat one, takes a minute with 60k reservations.
func (w *serveWorkload) auditLedger() error {
	want := profile.NewTree(w.book.Capacity(), w.book.Origin())
	held := 0
	for _, r := range w.book.List() {
		if r.Status == resbook.Released {
			continue
		}
		held++
		if err := want.Reserve(r.Start, r.End, r.Procs); err != nil {
			return fmt.Errorf("ledger replay of %s: %w", r.ID, err)
		}
	}
	if held != len(w.seeded) {
		return fmt.Errorf("ledger holds %d reservations, %d were seeded", held, len(w.seeded))
	}
	if err := w.seededHeld(); err != nil {
		return err
	}
	return sameSegments(want.Segments(), w.book.Snapshot().Avail.Segments(), "ledger", "profile")
}

// seededHeld checks that every seeded reservation is still active.
func (w *serveWorkload) seededHeld() error {
	for _, id := range w.seeded {
		if r, ok := w.book.Get(id); !ok || r.Status != resbook.Active {
			return fmt.Errorf("seeded reservation %s is no longer active", id)
		}
	}
	return nil
}

func sameSegments(a, b []profile.Segment, aName, bName string) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s has %d segments, %s has %d", aName, len(a), bName, len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("segment %d is %+v in %s, %+v in %s", i, a[i], aName, b[i], bName)
		}
	}
	return nil
}

// settle checks, after every round, that its releases restored the base
// schedule segment for segment and that every seeded reservation is
// still active; auditLedger has shown that the ledger held nothing else.
// Book.CheckInvariants runs too on books small enough to afford it
// every round. A committing workload then gets a fresh book: the ledger
// keeps a row for every released reservation, 21k more a round beside
// the 59k seeded, so on a book carried over the live heap doubles in
// twenty rounds, collections thin out and no two rounds do the same
// work.
func (w *serveWorkload) settle() error {
	if err := sameSegments(w.book.Snapshot().Avail.Segments(), w.baseSegs, "the book after the round", "the book before"); err != nil {
		return err
	}
	if err := w.seededHeld(); err != nil {
		return err
	}
	if len(w.seeded) <= 2048 {
		if err := w.book.CheckInvariants(); err != nil {
			return err
		}
	}
	if w.newBook == nil {
		return nil
	}
	return w.rebuild()
}

// rebuild replaces the book with a fresh one holding the same seeded
// reservations under the same IDs, and the server with one in front of
// it.
func (w *serveWorkload) rebuild() error {
	var err error
	if w.book, err = w.newBook(); err != nil {
		return err
	}
	for i, rq := range w.seeds {
		r, err := w.book.Reserve(rq.Start, rq.End, rq.Procs)
		if err != nil {
			return fmt.Errorf("reseeding: %w", err)
		}
		if r.ID != w.seeded[i] {
			return fmt.Errorf("reseeding: reservation %d is %s, was %s", i, r.ID, w.seeded[i])
		}
		if err := w.book.Activate(r.ID); err != nil {
			return err
		}
	}
	if err := w.serve(); err != nil {
		return err
	}
	return sameSegments(w.base.Avail.Segments(), w.baseSegs, "the rebuilt book", "the first")
}

// traced runs the round twice: every operation through the handler
// under a span, then every operation stage by stage. Two passes, not
// one operation after its twin, so that each finds its request as cold
// in the caches as an untraced round does.
func (w *serveWorkload) traced(tr *tracer) (int, error) {
	failed := 0
	for i := range w.reqs {
		tr.op = int32(i)
		tr.begin("op")
		w.post(i, tr)
		ok := w.receive() && w.release()
		tr.end()
		if !ok {
			failed++
		}
	}
	for i := range w.reqs {
		tr.op = int32(i)
		if err := w.staged(i, tr); err != nil {
			return 0, err
		}
	}
	return failed, nil
}

// staged replays request i stage by stage: the calls the handler makes
// into each layer, in its order, with what the server pools pooled
// here too, and a span around each.
func (w *serveWorkload) staged(i int, tr *tracer) error {
	rq := &w.reqs[i]
	tr.begin("staged")
	defer tr.end()

	// What the server spends on any request before and after its route
	// handler — timeout context, body limit, routing, metrics, the log
	// line, a small JSON reply — is what a health check costs.
	w.rw.reset()
	tr.begin("server.self")
	w.handler.ServeHTTP(&w.rw, w.ping)
	tr.end()

	var req api.ScheduleRequest
	tr.begin("api.decode")
	var err error
	if w.binary {
		err = req.UnmarshalBinary(rq.body)
	} else {
		dec := json.NewDecoder(bytes.NewReader(rq.body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	}
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("dagio.read")
	g, err := dagio.Read(bytes.NewReader(req.DAG))
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("core.new_scheduler")
	sch, err := core.NewScheduler(g)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("resbook.snapshot")
	snap := w.book.SnapshotInto(w.prof)
	tr.end()
	env := core.Env{P: w.book.Capacity(), Now: req.Now, Avail: snap.Avail, Q: req.Q}
	tr.begin("core.turnaround")
	sched, err := sch.TurnaroundCtx(context.Background(), env, core.BLCPAR, core.BDCPAR)
	tr.end()
	if err != nil {
		return err
	}
	// The scheduler ran CPA for q inside Turnaround; time the same
	// allocation beside it.
	tr.begin("cpa.allocate")
	_, err = cpa.Allocate(g, req.Q, cpa.StopStringent)
	tr.end()
	if err != nil {
		return err
	}
	var booked []resbook.Reservation
	if w.commit {
		reqs := make([]resbook.Request, 0, len(sched.Tasks))
		for _, pl := range sched.Tasks {
			if pl.End > pl.Start {
				reqs = append(reqs, resbook.Request{Start: pl.Start, End: pl.End, Procs: pl.Procs})
			}
		}
		tr.begin("resbook.commit")
		booked, err = w.book.Commit(snap, reqs)
		tr.end()
		if errors.Is(err, resbook.ErrStale) {
			w.stale++
		}
		if err != nil {
			return err
		}
	}
	resp := api.ScheduleResponse{
		Algorithm: "BL_CPAR_BD_CPAR", Version: snap.Version, Now: sched.Now,
		Completion: sched.Completion(), Turnaround: sched.Turnaround(), CPUHours: sched.CPUHours(),
		Committed: w.commit, Tasks: make([]api.Placement, 0, len(sched.Tasks)),
	}
	for t, pl := range sched.Tasks {
		resp.Tasks = append(resp.Tasks, api.Placement{Task: t, Procs: pl.Procs, Start: pl.Start, End: pl.End})
	}
	for _, b := range booked {
		resp.ReservationIDs = append(resp.ReservationIDs, b.ID)
	}
	tr.begin("api.encode")
	if w.binary {
		w.bin = resp.AppendBinary(w.bin[:0])
	} else {
		w.buf.Reset()
		err = w.enc.Encode(&resp)
	}
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("resbook.release")
	defer tr.end()
	for _, b := range booked {
		if err := w.book.Release(b.ID); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorkload) quality() (float64, float64) {
	n := float64(len(w.kept))
	return w.turn / n, w.cpuh / n
}

func (w *serveWorkload) layers(m map[string]float64) {
	n := float64(len(w.reqs))
	bytesIn := 0
	for _, rq := range w.reqs {
		bytesIn += len(rq.body)
	}
	m["api.req_bytes"] = float64(bytesIn) / n
	m["api.resp_bytes"] = float64(w.respBytes) / n
	m["resbook.seed_s"] = w.seedTime.Seconds()
	m["resbook.reservations"] = float64(len(w.seeded))
	m["profile.segments"] = float64(len(w.baseSegs))
	m["server.retries_per_op"] = float64(w.retries) / n
	m["resbook.stale_commits"] = float64(w.stale)
}

func (w *serveWorkload) probes() []probeTarget {
	return []probeTarget{{avail: w.base.Avail, now: w.reqs[0].now}}
}
