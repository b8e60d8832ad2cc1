// Command reschedd serves the scheduling and reservation API over
// HTTP. It holds one reservation book for one cluster and lets
// concurrent clients compute RESSCHED / RESSCHEDDL schedules against
// live snapshots of it, commit them with optimistic concurrency, and
// manage individual advance reservations.
//
// The book starts empty (-procs processors, all free from -origin) or
// seeded from a reservation-schedule JSON file written by "resgen
// resv" (-resv; its processor count and observation time override
// -procs and -origin).
//
// With -shards N (and an -epoch length) the book is partitioned into
// N time epochs with independent locks and commit stamps, so commits
// into disjoint epochs proceed concurrently.
//
// With -online the daemon additionally runs the lifecycle engine
// (internal/lifecycle): jobs submitted via POST /v1/jobs queue, place,
// backfill under the activation guardrail, and receive
// starvation-triggered advance reservations; GET /v1/jobs/{id}/forecast
// reports per-job feasibility. The engine flags (-tick, -backfill,
// -starve-attempts, -starve-age) require -online — combining them
// without it is an error, not a silent no-op — and -online rejects
// -resv, because seeded reservations have no owning jobs for the
// engine to activate or release.
//
// Examples:
//
//	reschedd -addr :8080 -procs 128
//	reschedd -addr :8080 -resv resv.json -workers 8 -log json
//	reschedd -addr :8080 -shards 8 -epoch 86400
//	reschedd -addr :8080 -pprof-addr localhost:6060
//	reschedd -addr :8080 -online -backfill=true -starve-attempts 8
//
// The daemon drains in-flight requests on SIGINT/SIGTERM before
// exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"resched/internal/lifecycle"
	"resched/internal/model"
	"resched/internal/resbook"
	"resched/internal/schedio"
	"resched/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "reschedd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	procs := flag.Int("procs", 64, "cluster capacity in processors")
	origin := flag.Int64("origin", 0, "book origin time in seconds")
	resv := flag.String("resv", "", "seed the book from this reservation-schedule JSON file (from 'resgen resv')")
	workers := flag.Int("workers", 4, "max concurrently running scheduling computations")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	maxBody := flag.Int64("max-body", 1<<20, "request body limit in bytes")
	retries := flag.Int("retries", 8, "max version-conflict retries per commit")
	logFormat := flag.String("log", "text", "log format: text or json")
	shards := flag.Int("shards", 1, "number of time-epoch shards in the reservation book")
	epoch := flag.Int64("epoch", int64(model.Day), "shard epoch length in seconds (used with -shards > 1)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (off when empty)")
	online := flag.Bool("online", false, "run the online job lifecycle engine (enables the /v1/jobs API)")
	tick := flag.Duration("tick", time.Second, "online engine scheduling period (requires -online)")
	backfill := flag.Bool("backfill", true, "online engine: backfill queued jobs under the activation guardrail (requires -online)")
	starveAttempts := flag.Int("starve-attempts", 8, "online engine: failed placement passes before a queued job gets an advance reservation, <=0 disables (requires -online)")
	starveAge := flag.Int64("starve-age", int64(15*model.Minute), "online engine: queue age in seconds before a queued job gets an advance reservation, <=0 disables (requires -online)")
	flag.Parse()

	if err := validateOnlineFlags(flag.CommandLine, *online); err != nil {
		return err
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("unknown log format %q (want text or json)", *logFormat)
	}
	log := slog.New(handler)

	book, err := buildBook(*resv, *procs, model.Time(*origin), *shards, model.Duration(*epoch))
	if err != nil {
		return err
	}

	var eng *lifecycle.Engine
	if *online {
		sa := *starveAttempts
		if sa <= 0 {
			sa = -1
		}
		sg := model.Duration(*starveAge)
		if sg <= 0 {
			sg = -1
		}
		eng, err = lifecycle.New(lifecycle.Config{
			Book:           book,
			Backfill:       *backfill,
			StarveAttempts: sa,
			StarveAge:      sg,
			MaxRetries:     *retries,
			Tick:           *tick,
			Logger:         log,
		})
		if err != nil {
			return err
		}
	}

	srv, err := server.New(server.Config{
		Book:       book,
		Workers:    *workers,
		Timeout:    *timeout,
		MaxBody:    *maxBody,
		MaxRetries: *retries,
		Logger:     log,
		Engine:     eng,
	})
	if err != nil {
		return err
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if eng != nil {
		if err := eng.Start(ctx); err != nil {
			return err
		}
		defer eng.Close()
	}

	errc := make(chan error, 2)
	go func() {
		log.Info("listening",
			"addr", *addr,
			"procs", book.Capacity(),
			"origin", int64(book.Origin()),
			"shards", book.NumShards(),
			"reservations", len(book.List()),
		)
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	// The profiling listener is deliberately separate from the API
	// listener: pprof endpoints are never exposed on the serving
	// address, and leaving -pprof-addr empty (the default) keeps them
	// out of the process entirely.
	var ps *http.Server
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ps = &http.Server{
			Addr:              *pprofAddr,
			Handler:           pm,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Info("pprof listening", "addr", *pprofAddr)
			if err := ps.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("pprof: %w", err)
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Info("shutting down, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if ps != nil {
		if err := ps.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("pprof shutdown: %w", err)
		}
	}
	log.Info("bye", "final_version", book.Version())
	return nil
}

// validateOnlineFlags fails fast on flag combinations the daemon
// would otherwise silently misinterpret: engine flags without
// -online, and -online with a seeded schedule (-resv), whose
// reservations have no owning jobs for the engine to drive.
func validateOnlineFlags(fs *flag.FlagSet, online bool) error {
	engineFlags := map[string]bool{
		"tick":            true,
		"backfill":        true,
		"starve-attempts": true,
		"starve-age":      true,
	}
	var bad error
	fs.Visit(func(f *flag.Flag) {
		if bad != nil {
			return
		}
		if !online && engineFlags[f.Name] {
			bad = fmt.Errorf("-%s requires -online", f.Name)
		}
		if online && f.Name == "resv" {
			bad = errors.New("-online is incompatible with -resv: seeded reservations have no owning jobs for the lifecycle engine")
		}
	})
	return bad
}

// buildBook seeds the reservation book: empty with the given capacity
// and origin, or from a reservation-schedule file whose own processor
// count and observation time take precedence. With shards > 1 the
// book is partitioned into time epochs of the given length.
func buildBook(resvPath string, procs int, origin model.Time, shards int, epoch model.Duration) (*resbook.Book, error) {
	if resvPath == "" {
		return resbook.NewSharded(procs, origin, shards, epoch)
	}
	f, err := os.Open(resvPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, now, rs, err := schedio.ReadReservations(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", resvPath, err)
	}
	b, err := resbook.NewSharded(p, now, shards, epoch)
	if err != nil {
		return nil, err
	}
	if err := b.Seed(rs); err != nil {
		return nil, err
	}
	return b, nil
}
