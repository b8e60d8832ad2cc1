package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"resched/internal/daggen"
	"resched/internal/model"
	"resched/internal/profile"
)

// TestCanceledContextStopsScheduling checks that every context-aware
// entry point returns promptly with context.Canceled instead of
// completing the schedule — the property the daemon's per-request
// timeouts rely on.
func TestCanceledContextStopsScheduling(t *testing.T) {
	g := chainGraph(20, model.Hour, 0.1)
	s, err := NewScheduler(g)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{P: 16, Now: 0, Avail: profile.New(16, 0)}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := s.TurnaroundCtx(ctx, env, BLCPAR, BDCPAR); !errors.Is(err, context.Canceled) {
		t.Errorf("TurnaroundCtx under canceled ctx: %v, want context.Canceled", err)
	}
	for _, algo := range AllDL {
		if _, err := s.DeadlineCtx(ctx, env, algo, 100*model.Hour); !errors.Is(err, context.Canceled) {
			t.Errorf("DeadlineCtx(%v) under canceled ctx: %v, want context.Canceled", algo, err)
		}
	}
	if _, _, err := s.TightestDeadlineCtx(ctx, env, DLBDCPA); !errors.Is(err, context.Canceled) {
		t.Errorf("TightestDeadlineCtx under canceled ctx: %v, want context.Canceled", err)
	}
}

// countdownCtx reports cancellation from its (left+1)-th Err call on,
// so a test can cancel at a chosen point inside a computation.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestCancelDuringPlanBuild cancels the first DeadlineCtx half way
// through the reference-start pass of a 100-task DAG. The partial pass
// must not be cached: a later call with a live context has to return
// exactly what a fresh scheduler returns.
func TestCancelDuringPlanBuild(t *testing.T) {
	spec := daggen.Default()
	spec.N = 100
	g := daggen.MustGenerate(spec, rand.New(rand.NewSource(11)))
	env := randomEnv(rand.New(rand.NewSource(12)), 64, 5000)
	// At the tightest deadline the reference starts decide placements.
	k, want, err := mustScheduler(t, g).TightestDeadline(env, DLRCCPAR)
	if err != nil {
		t.Fatal(err)
	}

	s := mustScheduler(t, g)
	ctx := &countdownCtx{Context: context.Background(), left: 50}
	_, err = s.DeadlineCtx(ctx, env, DLRCCPAR, k)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "reference schedule") {
		t.Fatalf("DeadlineCtx canceled inside the plan build: %v", err)
	}
	got, err := s.DeadlineCtx(context.Background(), env, DLRCCPAR, k)
	if err != nil {
		t.Fatal(err)
	}
	samePlacements(t, "after a canceled plan build", got, want)
}

// TestBackgroundContextMatchesPlainCalls checks the ctx variants are
// pure wrappers: with a background context they produce the same
// schedules as the original entry points.
func TestBackgroundContextMatchesPlainCalls(t *testing.T) {
	g := chainGraph(5, model.Hour, 0.1)
	s, err := NewScheduler(g)
	if err != nil {
		t.Fatal(err)
	}
	avail := profile.New(16, 0)
	if err := avail.Reserve(0, 2*model.Hour, 12); err != nil {
		t.Fatal(err)
	}
	env := Env{P: 16, Now: 0, Avail: avail, Q: 8}

	want, err := s.Turnaround(env, BLCPAR, BDCPAR)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.TurnaroundCtx(context.Background(), env, BLCPAR, BDCPAR)
	if err != nil {
		t.Fatal(err)
	}
	if got.Completion() != want.Completion() || got.ProcSeconds() != want.ProcSeconds() {
		t.Errorf("TurnaroundCtx schedule differs: completion %d vs %d", got.Completion(), want.Completion())
	}

	deadline := env.Now + 100*model.Hour
	wantDL, err := s.Deadline(env, DLRCCPAR, deadline)
	if err != nil {
		t.Fatal(err)
	}
	gotDL, err := s.DeadlineCtx(context.Background(), env, DLRCCPAR, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if gotDL.Completion() != wantDL.Completion() || gotDL.ProcSeconds() != wantDL.ProcSeconds() {
		t.Errorf("DeadlineCtx schedule differs: completion %d vs %d", gotDL.Completion(), wantDL.Completion())
	}
}
