// Package server implements the reschedd HTTP JSON API: scheduling
// requests (RESSCHED and RESSCHEDDL) served against a live
// resbook.Book, direct reservation management, profile inspection,
// and expvar-style metrics.
//
// Serving discipline: a bounded worker pool caps the number of
// concurrently running scheduling computations (they are CPU-bound;
// unbounded concurrency would thrash), every request runs under a
// per-request timeout enforced through context cancellation in the
// scheduling loops, and request bodies are size-limited before they
// reach the JSON decoder. Schedule commits run the book's
// optimistic-concurrency loop: compute on a snapshot, commit with a
// version check, recompute on conflict.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"resched/internal/api"
	"resched/internal/lifecycle"
	"resched/internal/profile"
	"resched/internal/resbook"
)

// Config parameterizes a Server. The zero value of every field except
// Book gets a sensible default.
type Config struct {
	// Book is the reservation book to serve. Required.
	Book *resbook.Book
	// Workers bounds the number of concurrently executing scheduling
	// computations (default 4). Requests beyond it queue until their
	// timeout and are then shed with 503.
	Workers int
	// Timeout is the per-request deadline (default 30s).
	Timeout time.Duration
	// MaxBody is the request body limit in bytes (default 1 MiB).
	MaxBody int64
	// MaxRetries bounds the optimistic-concurrency commit loop
	// (default 8); beyond it the request fails with 409.
	MaxRetries int
	// Logger receives one structured line per request. Nil discards.
	Logger *slog.Logger
	// Engine is the online lifecycle engine behind the /v1/jobs
	// surface. Nil (the default, daemons not started with -online)
	// serves those routes as 503.
	Engine *lifecycle.Engine
}

// Server serves the reschedd API. Construct with New.
type Server struct {
	cfg     Config
	book    *resbook.Book
	engine  *lifecycle.Engine
	sem     chan struct{}
	metrics *metrics
	mux     *http.ServeMux
	log     *slog.Logger

	// profPool recycles the snapshot profiles the commit loop copies
	// the book into, one per in-flight scheduling attempt. Combined
	// with Book.SnapshotInto this removes a full step-function
	// allocation per request; the schedulers' own working copy is a
	// second clone-into against per-Scheduler scratch.
	profPool sync.Pool

	// encPool recycles response staging buffers with their bound JSON
	// encoders; binPool recycles the byte slices the binary codec
	// appends into. Both follow one borrow discipline: get, defer put,
	// never escape.
	encPool sync.Pool
	binPool sync.Pool

	// beforeCommit, when non-nil, runs between computing a schedule
	// and committing it. Tests use it to force version conflicts
	// deterministically; production servers leave it nil.
	beforeCommit func()
}

// New returns a Server for the given configuration.
func New(cfg Config) (*Server, error) {
	if cfg.Book == nil {
		return nil, errors.New("server: nil reservation book")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 8
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:     cfg,
		book:    cfg.Book,
		engine:  cfg.Engine,
		sem:     make(chan struct{}, cfg.Workers),
		metrics: &metrics{},
		log:     log,
	}
	s.profPool.New = func() any { return &profile.Profile{} }
	s.encPool.New = func() any {
		e := &encBuf{}
		e.enc = json.NewEncoder(&e.buf)
		return e
	}
	s.binPool.New = func() any { return new([]byte) }
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	mux.HandleFunc("POST /v1/schedule/batch", s.handleScheduleBatch)
	mux.HandleFunc("POST /v1/deadline", s.handleDeadline)
	mux.HandleFunc("POST /v1/reservations", s.handleReservationCreate)
	mux.HandleFunc("GET /v1/reservations", s.handleReservationList)
	mux.HandleFunc("GET /v1/reservations/{id}", s.handleReservationGet)
	mux.HandleFunc("POST /v1/reservations/{id}/activate", s.handleReservationActivate)
	mux.HandleFunc("DELETE /v1/reservations/{id}", s.handleReservationDelete)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/forecast", s.handleJobForecast)
	mux.HandleFunc("GET /v1/profile", s.handleProfile)
	mux.HandleFunc("GET /debug/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusNotFound, api.Error{Error: "no such endpoint"})
	})
	s.mux = mux
	return s, nil
}

// Book returns the reservation book the server mutates, so embedding
// processes (and tests) can inspect it.
func (s *Server) Book() *resbook.Book { return s.book }

// Handler returns the fully wrapped http.Handler: routing inside
// request-scoped timeout, metrics, and logging.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)

		rw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.metrics.requests.Add(1)
		s.mux.ServeHTTP(rw, r)

		dur := time.Since(start)
		s.metrics.countStatus(rw.status)
		s.metrics.observe(dur)
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rw.status,
			"bytes", rw.bytes,
			"duration_ms", float64(dur)/float64(time.Millisecond),
		)
	})
}

// statusWriter captures the response status and size for metrics and
// logging.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// acquireWorker reserves a slot in the bounded pool, giving up when
// the request's deadline expires first. It reports whether the slot
// was acquired; on false the 503 has been written.
func (s *Server) acquireWorker(w http.ResponseWriter, r *http.Request) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	case <-r.Context().Done():
		s.metrics.overload.Add(1)
		s.writeJSON(w, http.StatusServiceUnavailable, api.Error{Error: "scheduling workers saturated"})
		return false
	}
}

func (s *Server) releaseWorker() { <-s.sem }

// decodeJSON reads a size-limited JSON body into v. On failure it
// writes the error response and returns false.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeJSON(w, http.StatusRequestEntityTooLarge,
				api.Error{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return false
		}
		s.writeJSON(w, http.StatusBadRequest, api.Error{Error: "malformed JSON: " + err.Error()})
		return false
	}
	return true
}

// writeSchedulingError maps a scheduling/commit failure to a status
// code: timeouts to 504, infeasible deadlines to 422, everything else
// (malformed environments, impossible requests) to 400.
func (s *Server) writeSchedulingError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.metrics.timeouts.Add(1)
		s.writeJSON(w, http.StatusGatewayTimeout, api.Error{Error: "scheduling timed out: " + err.Error()})
	default:
		s.writeJSON(w, http.StatusBadRequest, api.Error{Error: err.Error()})
	}
}
