package server

import (
	"errors"
	"fmt"
	"net/http"

	"resched/internal/api"
	"resched/internal/core"
	"resched/internal/dagio"
	"resched/internal/model"
	"resched/internal/profile"
	"resched/internal/resbook"
)

// computeFn runs one scheduling algorithm against an environment
// snapshot, returning the schedule and (for deadline requests) the
// met deadline.
type computeFn func(env core.Env) (*core.Schedule, model.Time, error)

// resolveNow validates and defaults the request's scheduling time.
func (s *Server) resolveNow(reqNow model.Time) (model.Time, error) {
	origin := s.book.Origin()
	if reqNow == 0 {
		return origin, nil
	}
	if reqNow < origin {
		return 0, fmt.Errorf("now %d before the book's origin %d", reqNow, origin)
	}
	return reqNow, nil
}

// buildScheduleResponse assembles the response shared by the solo and
// batch serving paths.
func buildScheduleResponse(algo string, version uint64, sched *core.Schedule, deadline model.Time, retries int) api.ScheduleResponse {
	resp := api.ScheduleResponse{
		Algorithm:  algo,
		Version:    version,
		Now:        sched.Now,
		Completion: sched.Completion(),
		Turnaround: sched.Turnaround(),
		CPUHours:   sched.CPUHours(),
		Deadline:   deadline,
		Retries:    retries,
		Tasks:      make([]api.Placement, 0, len(sched.Tasks)),
	}
	for t, pl := range sched.Tasks {
		resp.Tasks = append(resp.Tasks, api.Placement{Task: t, Procs: pl.Procs, Start: pl.Start, End: pl.End})
	}
	return resp
}

// runCommitLoop is the shared serving path of /v1/schedule and
// /v1/deadline: snapshot the book, compute, and — when the request
// asks to commit — book the reservations with a stamp check,
// recomputing on conflict up to the configured retry budget. bin
// selects the response codec negotiated via Accept.
func (s *Server) runCommitLoop(w http.ResponseWriter, r *http.Request, bin bool, algo string, now model.Time, q int, commit bool, compute computeFn) {
	ctx := r.Context()
	retries := 0
	// The snapshot profile is pooled: SnapshotInto reuses its backing
	// arrays, and nothing retains it once compute returns (schedulers
	// work on their own copy), so it goes back to the pool on exit.
	prof := s.profPool.Get().(*profile.Profile)
	defer s.profPool.Put(prof)
	for {
		if err := ctx.Err(); err != nil {
			s.writeSchedulingError(w, r, err)
			return
		}
		snap := s.book.SnapshotInto(prof)
		env := core.Env{P: s.book.Capacity(), Now: now, Avail: snap.Avail, Q: q}
		sched, deadline, err := compute(env)
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				s.writeJSON(w, http.StatusUnprocessableEntity, api.Error{Error: err.Error()})
				return
			}
			s.writeSchedulingError(w, r, err)
			return
		}

		resp := buildScheduleResponse(algo, snap.Version, sched, deadline, retries)
		if !commit {
			s.writeScheduleResponse(w, bin, http.StatusOK, &resp)
			return
		}

		reqs := make([]resbook.Request, 0, len(sched.Tasks))
		for _, pl := range sched.Tasks {
			if pl.End > pl.Start {
				reqs = append(reqs, resbook.Request{Start: pl.Start, End: pl.End, Procs: pl.Procs})
			}
		}
		if s.beforeCommit != nil {
			s.beforeCommit()
		}
		booked, err := s.book.Commit(snap, reqs)
		if err == nil {
			resp.Version = s.book.Version()
			resp.Committed = true
			resp.Retries = retries
			for _, b := range booked {
				resp.ReservationIDs = append(resp.ReservationIDs, b.ID)
			}
			s.writeScheduleResponse(w, bin, http.StatusOK, &resp)
			return
		}
		if errors.Is(err, resbook.ErrStale) {
			retries++
			s.metrics.retries.Add(1)
			if retries > s.cfg.MaxRetries {
				s.metrics.conflicts.Add(1)
				s.writeJSON(w, http.StatusConflict,
					api.Error{Error: fmt.Sprintf("gave up after %d version-conflict retries", retries-1)})
				return
			}
			continue
		}
		// A schedule computed against its own snapshot cannot fail to
		// commit at that version; anything else is an internal fault.
		s.writeJSON(w, http.StatusInternalServerError, api.Error{Error: "commit failed: " + err.Error()})
		return
	}
}

// handleSchedule serves POST /v1/schedule. Parsing and validation go
// through parseBatchJob — the same machinery as /v1/schedule/batch —
// so the two endpoints report byte-identical parse errors.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	bin := wantsBinary(r)
	var req api.ScheduleRequest
	if !s.decodeScheduleRequest(w, r, &req) {
		return
	}
	job, err := s.parseBatchJob(req)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, api.Error{Error: err.Error()})
		return
	}
	if !s.acquireWorker(w, r) {
		return
	}
	defer s.releaseWorker()

	s.runCommitLoop(w, r, bin, job.algo, job.now, job.q, req.Commit,
		func(env core.Env) (*core.Schedule, model.Time, error) {
			sched, err := job.sch.TurnaroundCtx(r.Context(), env, job.bl, job.bd)
			return sched, 0, err
		})
}

// batchJob is one parsed and validated job of a batch request.
type batchJob struct {
	sch  *core.Scheduler
	bl   core.BLMethod
	bd   core.BDMethod
	now  model.Time
	q    int
	algo string
}

// parseBatchJob validates one job of a batch request up front, so a
// malformed job fails the whole batch with 400 before any scheduling
// work happens.
func (s *Server) parseBatchJob(req api.ScheduleRequest) (batchJob, error) {
	g, err := dagio.Parse(req.DAG)
	if err != nil {
		return batchJob{}, err
	}
	bl := core.BLCPAR
	if req.BL != "" {
		if bl, err = core.ParseBL(req.BL); err != nil {
			return batchJob{}, err
		}
	}
	bd := core.BDCPAR
	if req.BD != "" {
		if bd, err = core.ParseBD(req.BD); err != nil {
			return batchJob{}, err
		}
	}
	now, err := s.resolveNow(req.Now)
	if err != nil {
		return batchJob{}, err
	}
	sch, err := core.NewScheduler(g)
	if err != nil {
		return batchJob{}, err
	}
	return batchJob{sch: sch, bl: bl, bd: bd, now: now, q: req.Q,
		algo: fmt.Sprintf("%s_%s", bl, bd)}, nil
}

// handleScheduleBatch serves POST /v1/schedule/batch: N applications
// scheduled against one snapshot, where job i+1 sees job i's
// placements, committed (when requested) through a single optimistic
// commit — one snapshot, one stamp check, one version bump, instead of
// N commit loops contending with each other.
func (s *Server) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchScheduleRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		s.writeJSON(w, http.StatusBadRequest, api.Error{Error: "batch contains no jobs"})
		return
	}
	jobs := make([]batchJob, len(req.Jobs))
	for i, jr := range req.Jobs {
		job, err := s.parseBatchJob(jr)
		if err != nil {
			s.writeJSON(w, http.StatusBadRequest, api.Error{Error: fmt.Sprintf("job %d: %s", i, err)})
			return
		}
		jobs[i] = job
	}
	if !s.acquireWorker(w, r) {
		return
	}
	defer s.releaseWorker()

	ctx := r.Context()
	retries := 0
	prof := s.profPool.Get().(*profile.Profile)
	defer s.profPool.Put(prof)
	for {
		if err := ctx.Err(); err != nil {
			s.writeSchedulingError(w, r, err)
			return
		}
		snap := s.book.SnapshotInto(prof)
		resp := api.BatchScheduleResponse{
			Version: snap.Version,
			Retries: retries,
			Jobs:    make([]api.ScheduleResponse, 0, len(jobs)),
		}
		var reqs []resbook.Request
		perJob := make([]int, len(jobs)) // reservation count per job, for ID fan-out
		for i, job := range jobs {
			env := core.Env{P: s.book.Capacity(), Now: job.now, Avail: snap.Avail, Q: job.q}
			sched, err := job.sch.TurnaroundCtx(ctx, env, job.bl, job.bd)
			if err != nil {
				if errors.Is(err, core.ErrInfeasible) {
					s.writeJSON(w, http.StatusUnprocessableEntity,
						api.Error{Error: fmt.Sprintf("job %d: %s", i, err)})
				} else {
					s.writeSchedulingError(w, r, fmt.Errorf("job %d: %w", i, err))
				}
				return
			}
			jr := buildScheduleResponse(job.algo, snap.Version, sched, 0, retries)
			// Later jobs must see this job's placements: reserve them
			// into the working snapshot before moving on.
			for _, pl := range sched.Tasks {
				if pl.End <= pl.Start {
					continue
				}
				if err := snap.Avail.Reserve(pl.Start, pl.End, pl.Procs); err != nil {
					// A schedule that does not fit the snapshot it was
					// computed from is an internal fault.
					s.writeJSON(w, http.StatusInternalServerError,
						api.Error{Error: fmt.Sprintf("job %d: staging placements: %s", i, err)})
					return
				}
				reqs = append(reqs, resbook.Request{Start: pl.Start, End: pl.End, Procs: pl.Procs})
				perJob[i]++
			}
			resp.Jobs = append(resp.Jobs, jr)
		}
		if !req.Commit {
			s.writeJSON(w, http.StatusOK, resp)
			return
		}
		if s.beforeCommit != nil {
			s.beforeCommit()
		}
		booked, err := s.book.Commit(snap, reqs)
		if err == nil {
			resp.Version = s.book.Version()
			resp.Committed = true
			resp.Retries = retries
			k := 0
			for i := range resp.Jobs {
				resp.Jobs[i].Version = resp.Version
				resp.Jobs[i].Committed = true
				for n := 0; n < perJob[i]; n++ {
					resp.Jobs[i].ReservationIDs = append(resp.Jobs[i].ReservationIDs, booked[k].ID)
					k++
				}
			}
			s.writeJSON(w, http.StatusOK, resp)
			return
		}
		if errors.Is(err, resbook.ErrStale) {
			retries++
			s.metrics.retries.Add(1)
			if retries > s.cfg.MaxRetries {
				s.metrics.conflicts.Add(1)
				s.writeJSON(w, http.StatusConflict,
					api.Error{Error: fmt.Sprintf("gave up after %d version-conflict retries", retries-1)})
				return
			}
			continue
		}
		s.writeJSON(w, http.StatusInternalServerError, api.Error{Error: "commit failed: " + err.Error()})
		return
	}
}

func (s *Server) handleDeadline(w http.ResponseWriter, r *http.Request) {
	var req api.DeadlineRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	g, err := dagio.Parse(req.DAG)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, api.Error{Error: err.Error()})
		return
	}
	algo := core.DLRCCPARLambda
	if req.Algo != "" {
		if algo, err = core.ParseDL(req.Algo); err != nil {
			s.writeJSON(w, http.StatusBadRequest, api.Error{Error: err.Error()})
			return
		}
	}
	if !req.Tightest && req.Deadline <= 0 {
		s.writeJSON(w, http.StatusBadRequest, api.Error{Error: "deadline (seconds after now) required unless tightest is set"})
		return
	}
	now, err := s.resolveNow(req.Now)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, api.Error{Error: err.Error()})
		return
	}
	sch, err := core.NewScheduler(g)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, api.Error{Error: err.Error()})
		return
	}
	if !s.acquireWorker(w, r) {
		return
	}
	defer s.releaseWorker()

	s.runCommitLoop(w, r, wantsBinary(r), algo.String(), now, req.Q, req.Commit,
		func(env core.Env) (*core.Schedule, model.Time, error) {
			if req.Tightest {
				k, sched, err := sch.TightestDeadlineCtx(r.Context(), env, algo)
				return sched, k, err
			}
			k := env.Now + req.Deadline
			sched, err := sch.DeadlineCtx(r.Context(), env, algo, k)
			return sched, k, err
		})
}

func toAPIReservation(r resbook.Reservation, version uint64) api.Reservation {
	return api.Reservation{
		ID:      r.ID,
		Start:   r.Start,
		End:     r.End,
		Procs:   r.Procs,
		Status:  r.Status.String(),
		Version: version,
	}
}

func (s *Server) handleReservationCreate(w http.ResponseWriter, r *http.Request) {
	var req api.ReservationRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	res, err := s.book.Reserve(req.Start, req.End, req.Procs)
	if err != nil {
		// Either malformed (empty interval, bad procs) or a genuine
		// capacity conflict; both leave the book untouched.
		s.writeJSON(w, http.StatusConflict, api.Error{Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusCreated, toAPIReservation(res, s.book.Version()))
}

func (s *Server) handleReservationList(w http.ResponseWriter, r *http.Request) {
	list := s.book.List()
	out := make([]api.Reservation, 0, len(list))
	for _, res := range list {
		out = append(out, toAPIReservation(res, 0))
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleReservationGet(w http.ResponseWriter, r *http.Request) {
	res, ok := s.book.Get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, api.Error{Error: "no such reservation"})
		return
	}
	s.writeJSON(w, http.StatusOK, toAPIReservation(res, 0))
}

// writeLifecycleError maps book lifecycle failures to status codes.
func (s *Server) writeLifecycleError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, resbook.ErrNotFound):
		s.writeJSON(w, http.StatusNotFound, api.Error{Error: err.Error()})
	case errors.Is(err, resbook.ErrReleased):
		s.writeJSON(w, http.StatusConflict, api.Error{Error: err.Error()})
	default:
		s.writeJSON(w, http.StatusInternalServerError, api.Error{Error: err.Error()})
	}
}

func (s *Server) handleReservationActivate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.book.Activate(id); err != nil {
		s.writeLifecycleError(w, err)
		return
	}
	res, _ := s.book.Get(id)
	s.writeJSON(w, http.StatusOK, toAPIReservation(res, s.book.Version()))
}

func (s *Server) handleReservationDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.book.Release(id); err != nil {
		s.writeLifecycleError(w, err)
		return
	}
	res, _ := s.book.Get(id)
	s.writeJSON(w, http.StatusOK, toAPIReservation(res, s.book.Version()))
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	snap := s.book.Snapshot()
	resp := api.ProfileResponse{
		Capacity: snap.Avail.Capacity(),
		Origin:   snap.Avail.Origin(),
		Version:  snap.Version,
	}
	for _, seg := range snap.Avail.Segments() {
		resp.Segments = append(resp.Segments, api.Segment{Start: seg.Start, Free: seg.Free})
	}
	for _, res := range s.book.List() {
		resp.Reservations = append(resp.Reservations, toAPIReservation(res, 0))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := s.metrics.snapshot(s.book.Version())
	if s.engine != nil {
		es := s.engine.Stats()
		resp.Engine = &api.EngineStats{
			Now:                    es.Now,
			QueueDepth:             es.QueueDepth,
			Arrivals:               es.Arrivals,
			Placements:             es.Placements,
			Backfills:              es.Backfills,
			StarvationReservations: es.StarvationReservations,
			Activations:            es.Activations,
			Completions:            es.Completions,
			Ticks:                  es.Ticks,
			Forecasts:              es.Forecasts,
			ForecastAvgMicros:      es.ForecastAvgMicros,
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}
