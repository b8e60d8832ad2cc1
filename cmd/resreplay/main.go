// Command resreplay replays a workload trace through the online
// lifecycle engine (internal/lifecycle) in simulated time and reports
// the online scheduling metrics: makespan, utilization, mean and max
// wait, and bounded slowdown, plus how often the engine backfilled
// and how many starvation-triggered advance reservations it booked.
//
// The trace comes from a synthetic archetype (-arch, -days, -seed;
// see internal/workload) or from a Standard Workload Format file
// (-swf). Jobs are rigid: the engine schedules each job's processor
// count for its recorded runtime; recorded waits in the input are
// ignored — producing new waits is the point of the replay.
//
// Examples:
//
//	resreplay -arch CTC_SP2 -days 2 -seed 7
//	resreplay -arch SDSC_BLUE -days 1 -backfill=false
//	resreplay -swf trace.swf -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"resched/internal/lifecycle"
	"resched/internal/model"
	"resched/internal/resbook"
	"resched/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "resreplay: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	arch := flag.String("arch", "CTC_SP2", "synthetic workload archetype (CTC_SP2, OSC_Cluster, SDSC_BLUE, SDSC_DS)")
	days := flag.Int("days", 1, "synthetic trace length in days")
	seed := flag.Int64("seed", 1, "synthetic trace random seed")
	swf := flag.String("swf", "", "replay this SWF file instead of a synthetic trace")
	procs := flag.Int("procs", 0, "override the cluster capacity (default: the trace's)")
	backfill := flag.Bool("backfill", true, "backfill queued jobs under the activation guardrail")
	starveAttempts := flag.Int("starve-attempts", 8, "failed placement passes before a starvation reservation, <=0 disables")
	starveAge := flag.Int64("starve-age", int64(15*model.Minute), "queue age in seconds before a starvation reservation, <=0 disables")
	timeout := flag.Duration("timeout", 5*time.Minute, "abort the replay after this much wall time")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	flag.Parse()

	lg, err := loadTrace(*swf, *arch, *days, *seed)
	if err != nil {
		return err
	}
	capacity := lg.Procs
	if *procs > 0 {
		capacity = *procs
	}
	trace := make([]lifecycle.Arrival, 0, len(lg.Jobs))
	for _, j := range lg.Jobs {
		p := j.Procs
		if p > capacity {
			p = capacity // wide jobs clamp when -procs shrinks the machine
		}
		trace = append(trace, lifecycle.Arrival{At: j.Submit, Procs: p, Dur: j.Run})
	}

	first, _ := lg.Span()
	book := resbook.New(capacity, first)
	sa := *starveAttempts
	if sa <= 0 {
		sa = -1
	}
	sg := model.Duration(*starveAge)
	if sg <= 0 {
		sg = -1
	}
	eng, err := lifecycle.New(lifecycle.Config{
		Book:           book,
		Backfill:       *backfill,
		StarveAttempts: sa,
		StarveAge:      sg,
	})
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	start := time.Now()
	rep, err := eng.Replay(ctx, trace)
	if err != nil {
		return err
	}
	if err := book.CheckInvariants(); err != nil {
		return fmt.Errorf("post-replay book invariants: %w", err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("trace: %s (%d jobs, %d processors)\n", lg.Name, len(trace), capacity)
	fmt.Printf("replay: %s in %.2fs wall\n", rep, time.Since(start).Seconds())
	return nil
}

// loadTrace reads the SWF file or synthesizes the archetype.
func loadTrace(swf, arch string, days int, seed int64) (*workload.Log, error) {
	if swf != "" {
		f, err := os.Open(swf)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.ParseSWF(f, swf)
	}
	a, err := workload.ByName(arch)
	if err != nil {
		return nil, err
	}
	if a.MeanLead > 0 {
		return nil, fmt.Errorf("archetype %q is a reservation log; the replay driver schedules queued jobs", arch)
	}
	return workload.Synthesize(a, days, rand.New(rand.NewSource(seed)))
}
