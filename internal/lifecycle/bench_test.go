package lifecycle

import (
	"context"
	"fmt"
	"testing"

	"resched/internal/model"
	"resched/internal/resbook"
)

func benchEngine(b *testing.B, capacity int, cfg Config) *Engine {
	b.Helper()
	book := resbook.New(capacity, 0)
	cfg.Book = book
	e, err := New(cfg)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	return e
}

// BenchmarkEngineTick measures the steady-state cost of one advance:
// a submit, an event fire, and a scheduling pass with placements
// flowing through the optimistic book transaction.
func BenchmarkEngineTick(b *testing.B) {
	e := benchEngine(b, 64, Config{Backfill: true, StarveAttempts: 4, StarveAge: -1})
	ctx := context.Background()
	var t model.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Submit(1+i%8, model.Duration(30+i%50)); err != nil {
			b.Fatalf("Submit: %v", err)
		}
		if err := e.AdvanceTo(ctx, t); err != nil {
			b.Fatalf("AdvanceTo: %v", err)
		}
		t += 10
	}
}

// BenchmarkForecast measures the GET /v1/jobs/{id}/forecast hot path:
// a snapshot, an auto-backend earliest-fit probe, and the deficit
// computation, against a book with a populated horizon.
func BenchmarkForecast(b *testing.B) {
	e := benchEngine(b, 64, Config{StarveAttempts: -1, StarveAge: -1})
	ctx := context.Background()
	// Populate the horizon: staggered running jobs plus a queue.
	for i := 0; i < 200; i++ {
		if _, err := e.Submit(1+i%4, model.Duration(100+i%400)); err != nil {
			b.Fatalf("Submit: %v", err)
		}
	}
	if err := e.AdvanceTo(ctx, 0); err != nil {
		b.Fatalf("AdvanceTo: %v", err)
	}
	target, err := e.Submit(64, 500) // whole machine: stays queued, nonzero deficit
	if err != nil {
		b.Fatalf("Submit: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := e.ForecastJob(target.ID)
		if err != nil {
			b.Fatalf("ForecastJob: %v", err)
		}
		if f.JobID != target.ID {
			b.Fatal("wrong forecast")
		}
	}
}

// BenchmarkReplay measures end-to-end simulated throughput on a
// medium random trace.
func BenchmarkReplay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := benchEngine(b, 32, Config{Backfill: true, StarveAttempts: 4, StarveAge: 300})
		trace := make([]Arrival, 0, 200)
		var t model.Time
		for j := 0; j < 200; j++ {
			t += model.Time(j % 20)
			trace = append(trace, Arrival{At: t, Procs: 1 + j%32, Dur: model.Duration(10 + j%200)})
		}
		b.StartTimer()
		rep, err := e.Replay(context.Background(), trace)
		if err != nil {
			b.Fatalf("Replay: %v", err)
		}
		if rep.Completed != len(trace) {
			b.Fatal(fmt.Sprintf("completed %d of %d", rep.Completed, len(trace)))
		}
	}
}
