// Package lifecycle is the online tier above the request/response
// scheduling path: a long-lived engine that drives the live
// reservation book through time — simulated (Replay) or wall-clock
// (Start) — so the book's Pending → Active → Released lifecycle
// actually runs instead of merely existing.
//
// The model. Jobs are rigid batch jobs (procs processors for dur
// seconds), the shape of the workload traces in internal/workload.
// A submitted job is Queued; the engine serves the queue FCFS at
// every advance of time:
//
//   - A job at the front of the queue starts immediately when the
//     profile has capacity now: the engine books a reservation
//     [now, now+dur), activates it, and the job is Running. At
//     now+dur the reservation is released and the job is Done.
//
//   - A job blocked behind an unplaceable predecessor may still start
//     now — backfill — under one hard guardrail: it must finish at or
//     before the earliest Pending reservation's activation time, so
//     opportunistic work booked into a reserved-but-idle window has
//     provably vacated when the reservation activates. (Capacity
//     safety is independently guaranteed by the book: every fit is
//     computed against a profile that already holds all pending
//     windows.)
//
//   - A job that fails to place for StarveAttempts passes, or has
//     waited StarveAge seconds, receives a starvation-triggered
//     advance reservation at its earliest feasible start, computed
//     against the snapshot profile on whichever backend the book's
//     snapshot hands out. The reservation is booked
//     Pending; the engine activates it at its start time, which is
//     when the job transitions Reserved → Running.
//
// Every placement goes through the book's optimistic Transact loop,
// so the engine coexists with concurrent API writers (direct
// reservations, batch schedule commits): a stale snapshot is
// recomputed, never double-booked.
//
// Concurrency model. All scheduling decisions run on one goroutine —
// the wall-clock loop started by Start, or the caller of
// Replay/AdvanceTo. The engine's mutex only guards the job table and
// queue for concurrent readers (Submit, Job, Jobs, Forecast arrive on
// HTTP handler goroutines); it is never held across a book operation
// or any other blocking call, the discipline reschedvet's lockhold
// analyzer enforces for this package.
package lifecycle

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"resched/internal/model"
	"resched/internal/profile"
	"resched/internal/resbook"
)

// State is a job's position in the engine lifecycle.
type State int

const (
	// Queued: submitted, not yet placed.
	Queued State = iota
	// Reserved: holds a starvation-triggered advance reservation,
	// waiting for its activation time.
	Reserved
	// Running: reservation active, executing.
	Running
	// Done: completed, reservation released. Terminal.
	Done
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Reserved:
		return "reserved"
	case Running:
		return "running"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Job is one job's view, a copy safe to retain. GuardBound is only
// meaningful for backfilled jobs: the earliest pending activation at
// placement time, which the placement's end may not cross (it is
// model.Infinity when no reservation was pending).
type Job struct {
	ID        string
	Procs     int
	Dur       model.Duration
	Submitted model.Time
	State     State
	Attempts  int

	// Placement, once the job left the queue.
	Start         model.Time
	End           model.Time
	ReservationID string
	Backfilled    bool
	Starved       bool
	GuardBound    model.Time
}

// Wait returns the job's queueing delay; zero until placed.
func (j Job) Wait() model.Duration {
	if j.State == Queued {
		return 0
	}
	return j.Start - j.Submitted
}

// Errors returned by the engine.
var (
	ErrNoJob   = errors.New("lifecycle: no such job")
	ErrStopped = errors.New("lifecycle: engine stopped")
)

// Config parameterizes an Engine. Zero values get defaults.
type Config struct {
	// Book is the live reservation book the engine drives. Required.
	Book *resbook.Book
	// Backfill enables out-of-order placement behind a blocked job
	// (guarded by the finish-before-activation rule). Disabled
	// engines are strict FCFS. Default off; cmd/reschedd and the
	// replay driver turn it on explicitly.
	Backfill bool
	// StarveAttempts is the number of failed placement passes after
	// which a queued job gets a starvation reservation (default 8;
	// negative disables the attempt trigger).
	StarveAttempts int
	// StarveAge is the queue age after which a job gets a starvation
	// reservation regardless of attempts (default 15 minutes;
	// negative disables the age trigger).
	StarveAge model.Duration
	// MaxRetries bounds the optimistic commit loop per placement
	// (default 8).
	MaxRetries int
	// Tick is the wall-clock loop period (default 1s). Replay ignores
	// it.
	Tick time.Duration
	// Logger receives engine events. Nil discards.
	Logger *slog.Logger
}

// Stats are the engine's monotonic counters, read with StatsSnapshot.
type stats struct {
	arrivals    atomic.Uint64
	placements  atomic.Uint64
	backfills   atomic.Uint64
	starved     atomic.Uint64
	activations atomic.Uint64
	completions atomic.Uint64
	ticks       atomic.Uint64
	forecasts   atomic.Uint64
	forecastNs  atomic.Uint64
}

// StatsSnapshot is a point-in-time copy of the engine counters plus
// the current queue depth and engine clock.
type StatsSnapshot struct {
	Now                    model.Time
	QueueDepth             int
	Arrivals               uint64
	Placements             uint64
	Backfills              uint64
	StarvationReservations uint64
	Activations            uint64
	Completions            uint64
	Ticks                  uint64
	Forecasts              uint64
	// ForecastAvgMicros is the mean forecast computation latency.
	ForecastAvgMicros float64
}

// Engine drives a reservation book through online time. Construct
// with New; drive with Start (wall clock), Replay (a trace), or
// AdvanceTo (tests and embedders).
type Engine struct {
	cfg  Config
	book *resbook.Book
	log  *slog.Logger

	mu sync.Mutex
	// Engine state under mu: the clock, the job table, the FCFS queue
	// (Queued job IDs in arrival order), the event heap, and the job ID
	// counter.
	now    model.Time      // guarded by mu
	jobs   map[string]*Job // guarded by mu
	queue  []string        // guarded by mu
	events eventHeap       // guarded by mu
	nextID uint64          // guarded by mu

	stats stats

	// Wall-clock mode plumbing (Start/Close). cancel and the wall-time
	// epoch anchoring the book origin are written by Start and read by
	// Close and wallNow, which may run on other goroutines, so they
	// ride under mu too; started/closed stay atomic because Submit
	// checks them on the handler fast path without the lock.
	wake    chan struct{}
	cancel  context.CancelFunc // guarded by mu
	wg      sync.WaitGroup
	started atomic.Bool
	closed  atomic.Bool
	epoch   time.Time // guarded by mu
}

// New returns an engine over the given book. The engine clock starts
// at the book's origin.
func New(cfg Config) (*Engine, error) {
	if cfg.Book == nil {
		return nil, errors.New("lifecycle: nil reservation book")
	}
	if cfg.StarveAttempts == 0 {
		cfg.StarveAttempts = 8
	}
	if cfg.StarveAge == 0 {
		cfg.StarveAge = 15 * model.Minute
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 8
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(discardHandler{})
	}
	return &Engine{
		cfg:  cfg,
		book: cfg.Book,
		log:  cfg.Logger,
		now:  cfg.Book.Origin(),
		jobs: map[string]*Job{},
		wake: make(chan struct{}, 1),
	}, nil
}

// discardHandler is a slog.Handler that drops everything; it avoids
// importing io just for io.Discard in the default path.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// Book returns the reservation book the engine drives.
func (e *Engine) Book() *resbook.Book { return e.book }

// Now returns the engine clock.
func (e *Engine) Now() model.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Submit enqueues one job. In wall-clock mode the loop is woken; in
// replay or manual mode the job is considered at the next advance.
func (e *Engine) Submit(procs int, dur model.Duration) (Job, error) {
	if procs < 1 || procs > e.book.Capacity() {
		return Job{}, fmt.Errorf("lifecycle: job needs %d processors on a %d-processor cluster", procs, e.book.Capacity())
	}
	if dur < 1 {
		return Job{}, fmt.Errorf("lifecycle: job duration %d < 1s", dur)
	}
	if e.closed.Load() {
		return Job{}, ErrStopped
	}
	e.mu.Lock()
	e.nextID++
	j := &Job{
		ID:        fmt.Sprintf("j%06d", e.nextID),
		Procs:     procs,
		Dur:       dur,
		Submitted: e.now,
		State:     Queued,
	}
	e.jobs[j.ID] = j
	e.queue = append(e.queue, j.ID)
	out := *j
	e.mu.Unlock()
	e.stats.arrivals.Add(1)
	if e.started.Load() {
		select {
		case e.wake <- struct{}{}:
		default:
		}
	}
	return out, nil
}

// Job returns a copy of the job with the given ID.
func (e *Engine) Job(id string) (Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Jobs returns copies of all jobs in submission order.
func (e *Engine) Jobs() []Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		out = append(out, *j)
	}
	// Shorter IDs first: past j999999 the zero padding runs out, and
	// j1000000 must not sort before it.
	slices.SortFunc(out, func(x, y Job) int {
		return cmp.Or(cmp.Compare(len(x.ID), len(y.ID)), cmp.Compare(x.ID, y.ID))
	})
	return out
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() StatsSnapshot {
	e.mu.Lock()
	now := e.now
	depth := len(e.queue)
	e.mu.Unlock()
	s := StatsSnapshot{
		Now:                    now,
		QueueDepth:             depth,
		Arrivals:               e.stats.arrivals.Load(),
		Placements:             e.stats.placements.Load(),
		Backfills:              e.stats.backfills.Load(),
		StarvationReservations: e.stats.starved.Load(),
		Activations:            e.stats.activations.Load(),
		Completions:            e.stats.completions.Load(),
		Ticks:                  e.stats.ticks.Load(),
		Forecasts:              e.stats.forecasts.Load(),
	}
	if s.Forecasts > 0 {
		s.ForecastAvgMicros = float64(e.stats.forecastNs.Load()) / float64(s.Forecasts) / 1e3
	}
	return s
}

// Forecast is the per-job feasibility report served by
// GET /v1/jobs/{id}/forecast: when the job could start at the
// earliest, how many processors it is short of right now, and what
// would unblock it.
type Forecast struct {
	JobID string
	State State
	Now   model.Time
	// EarliestStart is the earliest feasible start against the
	// current book (for placed jobs: the actual start).
	EarliestStart model.Time
	// Wait is EarliestStart - Now (zero for placed jobs).
	Wait model.Duration
	// Deficit is how many processors the job lacks to run over
	// [Now, Now+Dur) immediately; zero means it fits now.
	Deficit int
	// FreeNow is the number of processors free at Now.
	FreeNow int
	// Remedies are human-readable suggestions ordered by relevance.
	Remedies []string
	// Version is the book version the forecast was computed at.
	Version uint64
}

// ForecastJob computes the feasibility forecast for one job by
// replaying its fit against a snapshot of the book. The snapshot is
// probed through the auto-selected backend, so large horizons pay
// O(log n) per probe.
func (e *Engine) ForecastJob(id string) (Forecast, error) {
	start := time.Now()
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return Forecast{}, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	job := *j
	now := e.now
	e.mu.Unlock()

	f := Forecast{JobID: job.ID, State: job.State, Now: now}
	if job.State != Queued {
		// Placed (or finished): the forecast is the booked window.
		f.EarliestStart = job.Start
		if job.Start > now {
			f.Wait = job.Start - now
		}
		f.Version = e.book.Version()
		f.Remedies = []string{fmt.Sprintf("job is %s; reservation %s holds [%d,%d)", job.State, job.ReservationID, job.Start, job.End)}
		e.stats.forecasts.Add(1)
		e.stats.forecastNs.Add(uint64(time.Since(start)))
		return f, nil
	}

	// The snapshot pins an epoch root: on the persistent backend every
	// probe below replays against the same frozen tree with no reclone,
	// no matter how many commits land while the forecast runs.
	snap := e.book.Snapshot()
	f.Version = snap.Version
	avail := snap.Avail
	fit, err := avail.EarliestFitChecked(job.Procs, job.Dur, now)
	if err != nil {
		return Forecast{}, fmt.Errorf("lifecycle: forecast %s: %w", id, err)
	}
	f.EarliestStart = fit
	f.Wait = fit - now
	free, err := avail.MinFreeChecked(now, now+job.Dur)
	if err != nil {
		return Forecast{}, fmt.Errorf("lifecycle: forecast %s: %w", id, err)
	}
	f.FreeNow = freeAtChecked(avail, now)
	if free < job.Procs {
		f.Deficit = job.Procs - free
	}
	f.Remedies = remedies(job, f, free)

	e.stats.forecasts.Add(1)
	e.stats.forecastNs.Add(uint64(time.Since(start)))
	return f, nil
}

// freeAtChecked reads the free processors at t via the checked
// single-point window [t, t+1).
func freeAtChecked(avail profile.Intervals, t model.Time) int {
	free, err := avail.MinFreeChecked(t, t+1)
	if err != nil {
		return 0
	}
	return free
}

// remedies renders the forecast's actionable suggestions.
func remedies(job Job, f Forecast, freeOverWindow int) []string {
	var out []string
	if f.Deficit == 0 {
		out = append(out, "fits now; will start at the next scheduling pass")
		return out
	}
	out = append(out, fmt.Sprintf("wait %ds for the earliest feasible start at %d", f.Wait, f.EarliestStart))
	if freeOverWindow >= 1 {
		out = append(out, fmt.Sprintf("shrink to %d processors to start immediately", freeOverWindow))
	}
	out = append(out, fmt.Sprintf("deficit of %d processors over [%d,%d)", f.Deficit, f.Now, f.Now+job.Dur))
	return out
}
