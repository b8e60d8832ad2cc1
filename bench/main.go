// Command bench is the repository's benchmark: four in-process
// workloads over the serving path, the paper's offline algorithms and
// the online lifecycle engine, measured at one P by the fastest of many
// identical rounds. See README.md.
//
//	go run . -workload serve_commit                 end-to-end metrics
//	go run . -workload serve_commit -trace 1        per-layer metrics
//	go run . -aa 5                                  A/A repeatability table
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	// One P: wall time is then CPU time, garbage collection included,
	// and a busy second vCPU cannot be borrowed on some runs and not on
	// others. Fixed, not a flag — see README.md, "Noise study".
	runtime.GOMAXPROCS(1)

	opt := options{scale: 1, setups: defaultSetups, setupFor: setupSeconds}
	trace := flag.Int("trace", 0, "1 runs the traced replay, prints per-layer metrics in place of end-to-end ones and writes the first traced round's spans to .bench_build/spans-<workload>.json")
	aa := flag.Int("aa", 0, "run every workload in two interleaved sets of `N` runs and compare their medians")
	flag.StringVar(&opt.workload, "workload", "", "workload to run: serve_commit, serve_dryrun_small, grid_offline or replay_online")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the jitter on request times and job runtimes; the population itself is fixed")
	flag.Float64Var(&opt.seconds, "seconds", 26, "measuring time; rounds are run until it is spent")
	flag.Parse()
	opt.trace = *trace != 0
	if opt.trace {
		opt.spans = filepath.Join(".bench_build", "spans-"+opt.workload+".json")
	}

	if *aa > 0 {
		os.Exit(runAA(*aa, opt))
	}
	res, info, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d rounds, median round %.1f%% over the fastest, checksum %016x\n",
		opt.workload, opt.seed, info.rounds, info.spreadPct, info.checksum)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
