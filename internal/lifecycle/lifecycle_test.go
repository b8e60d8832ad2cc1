package lifecycle

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"resched/internal/model"
	"resched/internal/resbook"
)

// newEngine builds an engine over a sharded book for tests.
func newEngine(t *testing.T, capacity int, cfg Config) *Engine {
	t.Helper()
	book, err := resbook.NewSharded(capacity, 0, 4, model.Hour)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	cfg.Book = book
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func advance(t *testing.T, e *Engine, now model.Time) {
	t.Helper()
	if err := e.AdvanceTo(context.Background(), now); err != nil {
		t.Fatalf("AdvanceTo(%d): %v", now, err)
	}
}

func mustSubmit(t *testing.T, e *Engine, procs int, dur model.Duration) Job {
	t.Helper()
	j, err := e.Submit(procs, dur)
	if err != nil {
		t.Fatalf("Submit(%d,%d): %v", procs, dur, err)
	}
	return j
}

func wantState(t *testing.T, e *Engine, id string, want State) Job {
	t.Helper()
	j, ok := e.Job(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	if j.State != want {
		t.Fatalf("job %s state = %v, want %v", id, j.State, want)
	}
	return j
}

// TestCannedTrace is the acceptance scenario: an 8-processor cluster
// where a wide job starves into an advance reservation and a narrow
// job backfills under the activation guardrail, driven end to end
// through the sharded book's Pending→Active→Released lifecycle.
func TestCannedTrace(t *testing.T) {
	e := newEngine(t, 8, Config{Backfill: true, StarveAttempts: 3, StarveAge: -1})

	// A occupies 6 of 8 processors for 100s.
	a := mustSubmit(t, e, 6, 100)
	advance(t, e, 0)
	a = wantState(t, e, a.ID, Running)
	if a.Start != 0 || a.End != 100 {
		t.Fatalf("A window = [%d,%d), want [0,100)", a.Start, a.End)
	}

	// B needs the whole machine: blocked for 3 passes, then starved
	// into an advance reservation at A's completion.
	b := mustSubmit(t, e, 8, 50)
	advance(t, e, 0)
	advance(t, e, 0)
	advance(t, e, 0)
	b = wantState(t, e, b.ID, Reserved)
	if !b.Starved {
		t.Fatalf("B not marked starved")
	}
	if b.Start != 100 || b.End != 150 {
		t.Fatalf("B reservation = [%d,%d), want [100,150)", b.Start, b.End)
	}
	if res, ok := e.Book().Get(b.ReservationID); !ok || res.Status != resbook.Pending {
		t.Fatalf("B reservation %s status = %v, want Pending", b.ReservationID, res.Status)
	}

	// D cannot start (needs 4, only 2 free); E backfills behind it,
	// bounded by B's activation at t=100.
	d := mustSubmit(t, e, 4, 30)
	eJob := mustSubmit(t, e, 2, 40)
	advance(t, e, 0)
	wantState(t, e, d.ID, Queued)
	eJob = wantState(t, e, eJob.ID, Running)
	if !eJob.Backfilled {
		t.Fatalf("E not marked backfilled")
	}
	if eJob.GuardBound != 100 {
		t.Fatalf("E guard bound = %d, want 100", eJob.GuardBound)
	}
	if eJob.End > eJob.GuardBound {
		t.Fatalf("guardrail violated: E ends %d after bound %d", eJob.End, eJob.GuardBound)
	}

	// Drive to completion. D starves too (attempts 2, 3 at t=40) and
	// lands after B.
	advance(t, e, 40) // E completes
	advance(t, e, 40)
	d = wantState(t, e, d.ID, Reserved)
	if d.Start != 150 {
		t.Fatalf("D reservation start = %d, want 150", d.Start)
	}
	advance(t, e, 100) // A completes, B activates
	b = wantState(t, e, b.ID, Running)
	if res, ok := e.Book().Get(b.ReservationID); !ok || res.Status != resbook.Active {
		t.Fatalf("B reservation %s status = %v, want Active", b.ReservationID, res.Status)
	}
	advance(t, e, 180) // B completes, D activates and completes
	for _, id := range []string{a.ID, b.ID, d.ID, eJob.ID} {
		wantState(t, e, id, Done)
	}
	for _, res := range e.Book().List() {
		if res.Status != resbook.Released {
			t.Fatalf("reservation %s status = %v, want Released", res.ID, res.Status)
		}
	}
	if err := e.Book().CheckInvariants(); err != nil {
		t.Fatalf("book invariants: %v", err)
	}

	s := e.Stats()
	if s.Backfills < 1 {
		t.Fatalf("backfills = %d, want >= 1", s.Backfills)
	}
	if s.StarvationReservations < 2 {
		t.Fatalf("starvation reservations = %d, want >= 2", s.StarvationReservations)
	}
	if s.Completions != 4 {
		t.Fatalf("completions = %d, want 4", s.Completions)
	}
	if s.QueueDepth != 0 {
		t.Fatalf("queue depth = %d, want 0", s.QueueDepth)
	}
}

// TestBackfillGuardrailBinds constructs the case where capacity alone
// would admit a backfill but the guardrail forbids it: the candidate
// overlaps a pending activation even though the profile has room.
func TestBackfillGuardrailBinds(t *testing.T) {
	e := newEngine(t, 8, Config{Backfill: true, StarveAttempts: 50, StarveAge: -1})

	a := mustSubmit(t, e, 6, 100)
	advance(t, e, 0)
	wantState(t, e, a.ID, Running)

	// H starves immediately (attempts threshold 1 via direct config is
	// not available, so force it with repeated passes): H needs 4,
	// only 2 free, so it blocks; starve it by age instead.
	h := mustSubmit(t, e, 4, 50)
	e.cfg.StarveAttempts = 1
	advance(t, e, 0)
	e.cfg.StarveAttempts = 50
	h = wantState(t, e, h.ID, Reserved)
	if h.Start != 100 || h.End != 150 {
		t.Fatalf("H reservation = [%d,%d), want [100,150)", h.Start, h.End)
	}

	// After A completes at 100, the machine runs H's 4 processors and
	// has 4 free — so capacity-wise a 2x120s job fits at t=0 (2 free
	// until 100, 4 free after). The guardrail must still reject it:
	// it would cross H's activation at 100.
	blockedHead := mustSubmit(t, e, 8, 10)
	long := mustSubmit(t, e, 2, 120)
	short := mustSubmit(t, e, 2, 90)
	advance(t, e, 0)

	wantState(t, e, blockedHead.ID, Queued)
	wantState(t, e, long.ID, Queued) // capacity fits, guardrail binds
	got := wantState(t, e, short.ID, Running)
	if !got.Backfilled || got.GuardBound != 100 || got.End > got.GuardBound {
		t.Fatalf("short backfill = %+v, want backfilled with end <= 100", got)
	}
}

// TestStrictFCFSNoBackfill: with Backfill off, nothing jumps the
// queue even when it would fit.
func TestStrictFCFSNoBackfill(t *testing.T) {
	e := newEngine(t, 8, Config{Backfill: false, StarveAttempts: 50, StarveAge: -1})
	a := mustSubmit(t, e, 6, 100)
	wide := mustSubmit(t, e, 4, 10)
	narrow := mustSubmit(t, e, 1, 10)
	advance(t, e, 0)
	wantState(t, e, a.ID, Running)
	wantState(t, e, wide.ID, Queued)
	wantState(t, e, narrow.ID, Queued)
}

// TestStarveAgeTrigger: the age threshold books a reservation even
// when the attempts trigger is disabled.
func TestStarveAgeTrigger(t *testing.T) {
	e := newEngine(t, 4, Config{StarveAttempts: -1, StarveAge: 60})
	a := mustSubmit(t, e, 4, 1000)
	advance(t, e, 0)
	wantState(t, e, a.ID, Running)
	b := mustSubmit(t, e, 4, 10)
	advance(t, e, 0)
	wantState(t, e, b.ID, Queued)
	advance(t, e, 59)
	wantState(t, e, b.ID, Queued)
	advance(t, e, 60)
	b = wantState(t, e, b.ID, Reserved)
	if b.Start != 1000 {
		t.Fatalf("B reservation start = %d, want 1000", b.Start)
	}
}

func TestSubmitValidation(t *testing.T) {
	e := newEngine(t, 8, Config{})
	if _, err := e.Submit(0, 10); err == nil {
		t.Fatal("Submit(0 procs) succeeded")
	}
	if _, err := e.Submit(9, 10); err == nil {
		t.Fatal("Submit(procs > capacity) succeeded")
	}
	if _, err := e.Submit(1, 0); err == nil {
		t.Fatal("Submit(zero duration) succeeded")
	}
}

// TestJobsOrderPastSixDigits: job IDs are zero-padded to six digits,
// so a plain string sort files j1000000 before j999999; Jobs promises
// submission order.
func TestJobsOrderPastSixDigits(t *testing.T) {
	e := newEngine(t, 8, Config{})
	e.mu.Lock()
	e.nextID = 999_997
	e.mu.Unlock()
	var want []string
	for i := 0; i < 4; i++ {
		want = append(want, mustSubmit(t, e, 1, 10).ID)
	}
	if want[1] != "j999999" || want[2] != "j1000000" {
		t.Fatalf("submitted %v, want the run to cross j999999 -> j1000000", want)
	}
	for i, j := range e.Jobs() {
		if j.ID != want[i] {
			t.Fatalf("Jobs()[%d] = %s, want %s (submission order %v)", i, j.ID, want[i], want)
		}
	}
}

// TestForecastQueuedJob is the acceptance check for the forecast
// surface: a queued job that cannot start now reports its earliest
// feasible start and its processor deficit.
func TestForecastQueuedJob(t *testing.T) {
	e := newEngine(t, 8, Config{StarveAttempts: 50, StarveAge: -1})
	a := mustSubmit(t, e, 6, 100)
	advance(t, e, 0)
	wantState(t, e, a.ID, Running)
	b := mustSubmit(t, e, 4, 50)
	advance(t, e, 0)
	wantState(t, e, b.ID, Queued)

	f, err := e.ForecastJob(b.ID)
	if err != nil {
		t.Fatalf("ForecastJob: %v", err)
	}
	if f.EarliestStart != 100 {
		t.Fatalf("earliest start = %d, want 100", f.EarliestStart)
	}
	if f.Wait != 100 {
		t.Fatalf("wait = %d, want 100", f.Wait)
	}
	if f.Deficit != 2 {
		t.Fatalf("deficit = %d, want 2 (needs 4, 2 free)", f.Deficit)
	}
	if f.FreeNow != 2 {
		t.Fatalf("free now = %d, want 2", f.FreeNow)
	}
	if len(f.Remedies) == 0 {
		t.Fatal("no remedies")
	}
	joined := strings.Join(f.Remedies, "\n")
	if !strings.Contains(joined, "deficit of 2") {
		t.Fatalf("remedies missing deficit: %q", joined)
	}

	if _, err := e.ForecastJob("nope"); !errors.Is(err, ErrNoJob) {
		t.Fatalf("forecast of unknown job: %v, want ErrNoJob", err)
	}
}

func TestForecastPlacedJob(t *testing.T) {
	e := newEngine(t, 8, Config{})
	a := mustSubmit(t, e, 2, 100)
	advance(t, e, 0)
	f, err := e.ForecastJob(a.ID)
	if err != nil {
		t.Fatalf("ForecastJob: %v", err)
	}
	if f.State != Running || f.EarliestStart != 0 || f.Deficit != 0 {
		t.Fatalf("placed forecast = %+v", f)
	}
}

// TestWallClockMode exercises Start/Submit/Close: the loop must place
// a submitted job promptly (woken by Submit, not waiting a full tick)
// and shut down cleanly.
func TestWallClockMode(t *testing.T) {
	e := newEngine(t, 8, Config{Tick: 5 * time.Millisecond})
	if err := e.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := e.Start(context.Background()); err == nil {
		t.Fatal("second Start succeeded")
	}
	j := mustSubmit(t, e, 2, 3600)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, ok := e.Job(j.ID)
		if ok && got.State == Running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not running after 5s (state %v)", j.ID, got.State)
		}
		time.Sleep(time.Millisecond)
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.Submit(1, 10); !errors.Is(err, ErrStopped) {
		t.Fatalf("Submit after Close: %v, want ErrStopped", err)
	}
	if err := e.Start(context.Background()); !errors.Is(err, ErrStopped) {
		t.Fatalf("Start after Close: %v, want ErrStopped", err)
	}
}

// TestReplayCannedTrace runs the same canned scenario through Replay
// and checks the report's accounting.
func TestReplayCannedTrace(t *testing.T) {
	e := newEngine(t, 8, Config{Backfill: true, StarveAttempts: 2, StarveAge: -1})
	trace := []Arrival{
		{At: 0, Procs: 6, Dur: 100},
		{At: 0, Procs: 8, Dur: 50},
		{At: 5, Procs: 4, Dur: 30},
		{At: 5, Procs: 2, Dur: 40},
		{At: 10, Procs: 1, Dur: 20},
	}
	rep, err := e.Replay(context.Background(), trace)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rep.Jobs != 5 || rep.Completed != 5 {
		t.Fatalf("report jobs=%d completed=%d, want 5/5", rep.Jobs, rep.Completed)
	}
	if rep.Starved < 1 {
		t.Fatalf("report starvation reservations = %d, want >= 1", rep.Starved)
	}
	if rep.Util <= 0 || rep.Util > 1 {
		t.Fatalf("utilization = %v, want (0,1]", rep.Util)
	}
	if rep.MeanBSLD < 1 || rep.MaxBSLD < rep.MeanBSLD {
		t.Fatalf("bounded slowdown mean=%v max=%v", rep.MeanBSLD, rep.MaxBSLD)
	}
	if rep.Makespan <= 0 {
		t.Fatalf("makespan = %d, want > 0", rep.Makespan)
	}
	if err := e.Book().CheckInvariants(); err != nil {
		t.Fatalf("book invariants: %v", err)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

// TestReplayOnStartedEngine rejects mixing the two driving modes.
func TestReplayOnStartedEngine(t *testing.T) {
	e := newEngine(t, 8, Config{Tick: time.Hour})
	if err := e.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer e.Close()
	if _, err := e.Replay(context.Background(), nil); err == nil {
		t.Fatal("Replay on a started engine succeeded")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without a book succeeded")
	}
}
