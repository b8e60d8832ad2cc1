// Command benchjson converts `go test -bench` output into the
// machine-readable BENCH_*.json trajectory format committed at the
// repo root, and compares two trajectory files to gate regressions.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem ./... | benchjson -label optimized -out BENCH_PR2.json
//	benchjson compare -threshold 15 -gate internal/cpa.,internal/profile. BENCH_PR4.json BENCH_PR5.json
//
// compare prints the per-benchmark ns/op and allocs/op deltas for
// every benchmark present in both files (and lists the ones only in
// one of them), then exits non-zero if any gated benchmark — one
// whose name starts with a -gate prefix; all common benchmarks when
// -gate is empty — regressed on either of two counts, and says which.
// ns/op: by more than -threshold percent plus the benchmark's own
// repetition spread (see Result.NsSpreadPct; the slack is capped at
// twice the threshold). On a 1-vCPU shared machine, sub-microsecond
// benchmarks jitter well past a fixed percentage gate between
// identical binaries; requiring a regression to clear the same run's
// observed noise keeps the gate meaningful without loosening it for
// stable benchmarks. Deltas tolerated only by that slack are marked
// "~" in the table. allocs/op: by more than -threshold percent, with
// no slack — measured allocations are exact — but never for a rise of
// fewer than two allocations, which is 100 % of a one-allocation
// benchmark and says nothing. (PR 10 took SchedulePost from 143 to
// 1,619 allocs/op under a gate that only printed the delta.) Both
// files must come from -benchmem runs: a missing allocs/op reads as
// zero.
//
// Each invocation parses the benchmark lines on stdin and stores them
// under the given label in the output file, merging with any labels
// already present — so a baseline run and an optimized run of the same
// benchmarks land side by side:
//
//	{
//	  "format": "resched-bench/v1",
//	  "runs": {
//	    "baseline":  {"internal/cpa.BenchmarkAllocateWide/n=200/p=256": {"ns_op": ..., "b_op": ..., "allocs_op": ...}},
//	    "optimized": {...}
//	  }
//	}
//
// Domain metrics reported via b.ReportMetric (turnaround-s, cpu-hours,
// probes, ...) are kept under "metrics" per benchmark.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements.
type Result struct {
	Iterations int64              `json:"iterations"`
	NsOp       float64            `json:"ns_op"`
	BOp        float64            `json:"b_op,omitempty"`
	AllocsOp   float64            `json:"allocs_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	// NsSpreadPct is (median - min)/min ns/op across the -count
	// repetitions of one run, in percent — the benchmark's observed
	// same-binary jitter. Zero (and omitted) for single-repetition
	// runs. The compare gate widens its threshold by this much: a
	// "regression" smaller than the spread between identical
	// repetitions is indistinguishable from scheduling noise.
	NsSpreadPct float64 `json:"ns_spread_pct,omitempty"`
}

// File is the BENCH_*.json schema.
type File struct {
	Format string                       `json:"format"`
	Note   string                       `json:"note,omitempty"`
	Runs   map[string]map[string]Result `json:"runs"`
}

var benchLine = regexp.MustCompile(`^Benchmark\S+`)

// parse consumes `go test -bench` output. Package headers ("pkg:
// resched/internal/cpa") qualify the benchmark names that follow, so
// same-named benchmarks in different packages cannot collide. With
// `-count` repetitions the fastest ns/op line wins: the minimum is
// the noise-robust estimator for a CPU-bound benchmark (everything
// that perturbs a run makes it slower, never faster), which is what
// lets the compare gate hold a tight threshold on a shared machine.
func parse(r *bufio.Scanner) (map[string]Result, error) {
	out := make(map[string]Result)
	samples := make(map[string][]float64) // all ns/op repetitions per name
	pkg := ""
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if strings.HasPrefix(line, "pkg:") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			pkg = strings.TrimPrefix(pkg, "resched/")
			if pkg == "resched" {
				pkg = ""
			}
			continue
		}
		if !benchLine.MatchString(line) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		// Strip the -<GOMAXPROCS> suffix.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if pkg != "" {
			name = pkg + "." + name
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Iterations: iters}
		// Remaining fields come in (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsOp = v
			case "B/op":
				res.BOp = v
			case "allocs/op":
				res.AllocsOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[fields[i+1]] = v
			}
		}
		if res.NsOp > 0 {
			samples[name] = append(samples[name], res.NsOp)
		}
		if prev, ok := out[name]; ok && prev.NsOp > 0 && prev.NsOp <= res.NsOp {
			continue // keep the fastest repetition
		}
		out[name] = res
	}
	for name, ns := range samples {
		if len(ns) < 2 {
			continue
		}
		sort.Float64s(ns)
		med := ns[len(ns)/2]
		res := out[name]
		if res.NsOp > 0 {
			res.NsSpreadPct = (med - res.NsOp) / res.NsOp * 100
			out[name] = res
		}
	}
	return out, r.Err()
}

func run() error {
	label := flag.String("label", "optimized", "run label to store the parsed results under")
	outPath := flag.String("out", "BENCH_PR2.json", "output file; existing labels in it are preserved")
	note := flag.String("note", "", "optional note stored in the file (kept from the existing file if empty)")
	flag.Parse()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	results, err := parse(sc)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}

	f := File{Format: "resched-bench/v1", Runs: make(map[string]map[string]Result)}
	if prev, err := os.ReadFile(*outPath); err == nil {
		if err := json.Unmarshal(prev, &f); err != nil {
			return fmt.Errorf("existing %s is not valid bench JSON: %w", *outPath, err)
		}
		if f.Runs == nil {
			f.Runs = make(map[string]map[string]Result)
		}
	}
	f.Format = "resched-bench/v1"
	if *note != "" {
		f.Note = *note
	}
	f.Runs[*label] = results

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results under label %q to %s\n", len(results), *label, *outPath)
	return nil
}

// loadRun reads one label's results out of a trajectory file.
func loadRun(path, label string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s is not valid bench JSON: %w", path, err)
	}
	run, ok := f.Runs[label]
	if !ok {
		labels := make([]string, 0, len(f.Runs))
		for l := range f.Runs {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		return nil, fmt.Errorf("%s holds no run labelled %q (has %s)", path, label, strings.Join(labels, ", "))
	}
	return run, nil
}

// pctDelta is the relative change from old to new in percent;
// positive means new is larger (slower / more allocations).
func pctDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

// runCompare implements the compare subcommand.
func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	label := fs.String("label", "optimized", "run label to compare in both files")
	threshold := fs.Float64("threshold", 15, "max tolerated ns/op or allocs/op regression on gated benchmarks, in percent")
	gate := fs.String("gate", "", "comma-separated benchmark-name prefixes to gate; empty gates every common benchmark")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchjson compare [-label L] [-threshold N] [-gate prefixes] old.json new.json")
	}
	oldRun, err := loadRun(fs.Arg(0), *label)
	if err != nil {
		return err
	}
	newRun, err := loadRun(fs.Arg(1), *label)
	if err != nil {
		return err
	}
	var gates []string
	for _, g := range strings.Split(*gate, ",") {
		if g = strings.TrimSpace(g); g != "" {
			gates = append(gates, g)
		}
	}
	gated := func(name string) bool {
		if len(gates) == 0 {
			return true
		}
		for _, g := range gates {
			if strings.HasPrefix(name, g) {
				return true
			}
		}
		return false
	}

	var common, added, removed []string
	for name := range newRun {
		if _, ok := oldRun[name]; ok {
			common = append(common, name)
		} else {
			added = append(added, name)
		}
	}
	for name := range oldRun {
		if _, ok := newRun[name]; !ok {
			removed = append(removed, name)
		}
	}
	sort.Strings(common)
	sort.Strings(added)
	sort.Strings(removed)
	if len(common) == 0 {
		return fmt.Errorf("no benchmark appears in both %s and %s under label %q", fs.Arg(0), fs.Arg(1), *label)
	}

	var failed []string
	for _, name := range common {
		o, n := oldRun[name], newRun[name]
		dNs := pctDelta(o.NsOp, n.NsOp)
		dAlloc := pctDelta(o.AllocsOp, n.AllocsOp)
		// The gate widens by the new run's own repetition spread
		// (capped at twice the threshold so nothing is ever ungated):
		// when identical code jitters by more than the nominal delta,
		// the delta carries no signal. "~" surfaces deltas tolerated
		// only because of that slack, so reviewers still see them.
		slack := n.NsSpreadPct
		if slack > 2**threshold {
			slack = 2 * *threshold
		}
		mark, tripped := " ", ""
		if gated(name) {
			if dNs > *threshold+slack {
				tripped = "ns/op"
			} else if dNs > *threshold {
				mark = "~"
			}
			if rise := n.AllocsOp - o.AllocsOp; rise >= 2 && rise > o.AllocsOp**threshold/100 {
				if tripped != "" {
					tripped += ", "
				}
				tripped += "allocs/op"
			}
		}
		if tripped != "" {
			mark = "!"
			tripped = " (" + tripped + ")"
			failed = append(failed, name+tripped)
		}
		fmt.Printf("%s %-62s ns/op %12.1f -> %12.1f (%+6.1f%% ±%4.1f%%)  allocs/op %7.0f -> %7.0f (%+6.1f%%)%s\n",
			mark, name, o.NsOp, n.NsOp, dNs, n.NsSpreadPct, o.AllocsOp, n.AllocsOp, dAlloc, tripped)
	}
	for _, name := range added {
		fmt.Printf("+ %-62s new benchmark, no baseline\n", name)
	}
	for _, name := range removed {
		fmt.Printf("- %-62s removed, was %12.1f ns/op\n", name, oldRun[name].NsOp)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d gated benchmark(s) regressed by more than %.0f%%: %s",
			len(failed), *threshold, strings.Join(failed, "; "))
	}
	fmt.Fprintf(os.Stderr, "benchjson: compared %d benchmarks, no gated ns/op or allocs/op regression beyond %.0f%%\n",
		len(common), *threshold)
	return nil
}

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = runCompare(os.Args[2:])
	} else {
		err = run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
