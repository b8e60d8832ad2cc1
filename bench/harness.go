package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"resched/internal/model"
)

// masterSeed generates every workload's population — DAGs, reservation
// books, problem instances, the job trace. It is a constant on purpose:
// two runs are only comparable when both scheduled the same population
// (a re-synthesized 30-day trace moves mean wait fivefold between
// seeds), and the driver compares runs of different seeds. The -seed
// flag then nudges that population the way one day differs from the
// next: every request is made up to jitter seconds later, and one trace
// job in nudgeEvery runs a second or two longer (see README.md, "What
// the seed does"). That changes every output and checksum while the
// work, and so every metric, stays within a small fraction of its bound.
const masterSeed = 20080623

// jitter bounds how far the seed moves a request's scheduling time.
const jitter = 10 * model.Second

// minRounds is the fewest timed rounds a time-limited run makes.
const minRounds = 3

// Set-up is repeated at least defaultSetups times, and a cheap one keeps
// repeating for setupSeconds, up to maxSetups times in all.
const (
	defaultSetups = 5
	setupSeconds  = 1.0
	maxSetups     = 24
)

// spreadWarnPct is the round spread beyond which a run is reported on
// standard error as disturbed.
const spreadWarnPct = 15

// options selects and sizes one run. The command line reaches only the
// first four fields, the ones the driver passes; main fixes the rest at
// the full benchmark's values and bench_test.go shrinks them, so no
// flag can produce numbers that compare with no baseline.
type options struct {
	workload string
	seed     int64
	seconds  float64 // measuring time
	trace    bool    // traced run: per-layer metrics in place of end-to-end ones
	rounds   int     // exact number of timed rounds; 0 measures for seconds
	scale    float64 // population size relative to the full benchmark
	setups   int     // fewest times set-up is repeated; the fastest is reported
	setupFor float64 // seconds a cheap set-up keeps repeating for, up to maxSetups times
	spans    string  // file the traced run writes its spans to; "" writes none
}

// roundOutcome is what one round of a workload produced: a checksum
// over every result, the number of operations that failed, and the wall
// time of the operations alone — collecting results for the checksum is
// the harness's work, not the system's.
type roundOutcome struct {
	sum    uint64
	failed int
	wall   time.Duration
}

// runner is one workload: one set of inputs the benchmark runs. A round executes
// every operation once, in the same order and with the same inputs each
// time, so rounds are directly comparable and the fastest is the
// measurement least disturbed by the host.
type runner interface {
	// ops is the number of operations in a round.
	ops() int
	// round runs one round, storing operation i's latency in lat[i].
	// keep retains the outputs for check.
	round(lat []time.Duration, keep bool) (roundOutcome, error)
	// check verifies the outputs of the last keep round and returns how
	// many operations produced a wrong one.
	check() (int, error)
	// settle runs between rounds, untimed: it checks that the round left
	// the system in the state the next round expects.
	settle() error
	// traced runs one round again with a span around each call into a
	// layer, returning the number of failed operations.
	traced(tr *tracer) (int, error)
	// quality is the mean turn-around time (s) and CPU-hours of the
	// schedules the last keep round produced.
	quality() (turnaround, cpuHours float64)
	// layers adds the workload's counters and set-up timings to m.
	layers(m map[string]float64)
	// probes returns the profiles the fixed probe sets run against.
	probes() []probeTarget
}

// workloadSpec names a workload and says why it exists.
type workloadSpec struct {
	name string
	why  string
	make func(seed int64, scale float64) (runner, error)
}

var workloads = []workloadSpec{
	{"serve_commit", "committing JSON requests against a 60k-reservation sharded book: snapshot pin, treap fits, path-copying commit and release dominate; resbook/profile and alloc changes must show here", newServeCommit},
	{"serve_dryrun_small", "binary dry runs of 10- and 25-task DAGs against a 40-reservation flat book: decode, dagio, scheduler construction and encode dominate; a treap gain must not show here", newServeDryrun},
	{"grid_offline", "the paper's tables without server or book: CPA, forward and backward list scheduling on flat ~110-segment profiles; a gain for one fit direction that costs the other shows here", newGridOffline},
	{"replay_online", "lifecycle engine replaying a 30-day SDSC_BLUE trace with backfill: many small Transact/Activate/Release writes on a churning book; CPA and codecs do nothing", newReplayOnline},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// runInfo carries what tests and the A/A mode need beyond the result.
type runInfo struct {
	checksum  uint64
	rounds    int
	spreadPct float64
}

// measurement aggregates the timed rounds of one phase.
type measurement struct {
	walls      []float64 // s per round
	p50s       []float64 // ms per round
	lats       []time.Duration
	mallocs    uint64
	bytes      uint64
	gcs        uint32
	failed     int
	mismatches int
}

func (m *measurement) rounds() int { return len(m.walls) }

func (m *measurement) fastest() float64 { return minOf(m.walls) }

// spreadPct is median round over fastest round, minus one: how much the
// host disturbed a typical round.
func (m *measurement) spreadPct() float64 {
	return (median(append([]float64(nil), m.walls...))/m.fastest() - 1) * 100
}

// measure runs timed rounds of w until budget is spent (or exactly
// fixed rounds when fixed > 0). Every round must reproduce ref. after,
// when set, runs untimed behind every round: the traced run interleaves
// its traced rounds there, so that both kinds see the same heap and the
// same host.
func measure(w runner, ref uint64, budget time.Duration, fixed int, keepLats bool, after func(r int) error) (*measurement, error) {
	m := &measurement{}
	lat := make([]time.Duration, w.ops())
	sorted := make([]time.Duration, w.ops())
	var ms0, ms1 runtime.MemStats
	begin := time.Now()
	for r := 0; ; r++ {
		if fixed > 0 {
			if r >= fixed {
				break
			}
		} else if r >= minRounds && time.Since(begin) >= budget {
			break
		}
		runtime.GC() // every round starts from a collected heap, whatever settle left behind
		runtime.ReadMemStats(&ms0)
		out, err := w.round(lat, false)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		if err := w.settle(); err != nil {
			return nil, fmt.Errorf("after round %d: %w", r, err)
		}
		if out.sum != ref {
			m.mismatches++
		}
		m.failed += out.failed
		m.mallocs += ms1.Mallocs - ms0.Mallocs
		m.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		m.gcs += ms1.NumGC - ms0.NumGC
		m.walls = append(m.walls, out.wall.Seconds())
		copy(sorted, lat)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		m.p50s = append(m.p50s, float64(sorted[len(sorted)/2])/1e6)
		if keepLats {
			m.lats = append(m.lats, lat...)
		}
		if after != nil {
			if err := after(r); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// run performs one benchmark run: set-up, an untimed warm-up round
// whose outputs are verified and whose checksum every timed round must
// reproduce, then the timed rounds.
func run(opt options) (result, runInfo, error) {
	spec, ok := findWorkload(opt.workload)
	if !ok {
		return result{}, runInfo{}, fmt.Errorf("unknown workload %q", opt.workload)
	}
	// Set-up is repeated and the fastest repetition reported, under the
	// rule the rounds follow: the host only ever adds time. Half of the
	// repetitions run here and half behind the timed rounds, so that a
	// burst of interference lasting seconds cannot cover them all. The
	// last instance built here is the one measured.
	var setups []float64
	w, err := setUp(spec, opt, (opt.setups+1)/2, &setups)
	if err != nil {
		return result{}, runInfo{}, err
	}

	ref, err := w.round(make([]time.Duration, w.ops()), true)
	if err != nil {
		return result{}, runInfo{}, fmt.Errorf("warm-up round: %w", err)
	}
	wrong, err := w.check()
	if err != nil {
		return result{}, runInfo{}, fmt.Errorf("checking outputs: %w", err)
	}
	if err := w.settle(); err != nil {
		return result{}, runInfo{}, fmt.Errorf("after warm-up: %w", err)
	}
	runtime.GC()

	var layers *layerTimes
	var after func(int) error
	if opt.trace {
		layers = newLayerTimes(w)
		after = layers.round
	}
	m, err := measure(w, ref.sum, time.Duration(opt.seconds*float64(time.Second)), opt.rounds, opt.trace, after)
	if err != nil {
		return result{}, runInfo{}, err
	}
	ops := float64(w.ops())
	total := ops * float64(m.rounds())
	spread := m.spreadPct()
	if spread > spreadWarnPct {
		fmt.Fprintf(os.Stderr, "bench: %s: the median round is %.1f%% slower than the fastest; the host disturbed this run\n",
			opt.workload, spread)
	}

	res := result{
		Attempted: w.ops() * (m.rounds() + 1),
		Failed:    ref.failed + wrong + m.failed,
	}
	res.Correct = res.Failed == 0 && m.mismatches == 0
	info := runInfo{checksum: ref.sum, rounds: m.rounds(), spreadPct: spread}

	if !opt.trace {
		turn, cpuh := w.quality()
		w = nil // the remaining set-ups start from an empty heap, as the first did
		if _, err := setUp(spec, opt, opt.setups/2, &setups); err != nil {
			return result{}, runInfo{}, err
		}
		res.Metrics = report(endToEnd, map[string]float64{
			"setup_s":           minOf(setups),
			"throughput_ops_s":  ops / m.fastest(),
			"lat_p50_ms":        minOf(m.p50s),
			"allocs_per_op":     float64(m.mallocs) / total,
			"alloc_kb_per_op":   float64(m.bytes) / total / 1000,
			"turnaround_mean_s": turn,
			"cpu_hours_mean":    cpuh,
		})
		return res, info, nil
	}

	res.Attempted += w.ops() * m.rounds()
	res.Failed += layers.failed
	res.Correct = res.Correct && layers.failed == 0
	vals := map[string]float64{
		"bench.gc_cycles_per_kop": float64(m.gcs) / total * 1000,
		"bench.round_spread_pct":  spread,
		"server.lat_samples":      float64(len(m.lats)),
	}
	sort.Slice(m.lats, func(i, j int) bool { return m.lats[i] < m.lats[j] })
	vals["server.lat_p99_ms"] = float64(m.lats[len(m.lats)*99/100]) / 1e6
	layers.report(vals, m.fastest())
	w.layers(vals)
	vals["profile.earliest_fits_us"], vals["profile.latest_fits_us"], vals["profile.reserve_unreserve_us"] = runProbes(w.probes())
	if opt.spans != "" {
		if err := layers.tr.write(opt.spans); err != nil {
			return result{}, runInfo{}, fmt.Errorf("writing spans: %w", err)
		}
	}
	res.Metrics = report(perLayer, vals)
	return res, info, nil
}

// setUp builds the workload n times, and on for half of opt.setupFor
// seconds while that is cheap, appending the time of each repetition to
// times. It returns the last instance built.
func setUp(spec workloadSpec, opt options, n int, times *[]float64) (runner, error) {
	var w runner
	for i, spent := 0, 0.0; i < n || (spent < opt.setupFor/2 && i < maxSetups/2); i++ {
		w = nil
		runtime.GC() // a repetition should not pay for collecting the previous one
		t0 := time.Now()
		var err error
		if w, err = spec.make(opt.seed, opt.scale); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		*times = append(*times, d)
		spent += d
	}
	return w, nil
}

// spanMetrics maps a span name to the per-layer metric its mean self
// time per operation (µs) is reported under.
var spanMetrics = map[string]string{
	"api.decode":         "api.decode_us",
	"api.encode":         "api.encode_us",
	"dagio.read":         "dagio.read_us",
	"core.new_scheduler": "core.new_scheduler_us",
	"resbook.snapshot":   "resbook.snapshot_us",
	"resbook.commit":     "resbook.commit_us",
	"resbook.release":    "resbook.release_us",
	"cpa.allocate":       "cpa.allocate_us",
	"core.turnaround":    "core.turnaround_us",
	"core.deadline":      "core.deadline_us",
	"core.tightest":      "core.tightest_us",
	"server.handler":     "server.handler_us",
	"server.self":        "server.self_us",
	"lifecycle.submit":   "lifecycle.submit_us",
	"lifecycle.advance":  "lifecycle.advance_us",
}

// handlerStages are the parts of POST /v1/schedule the traced round
// times on their own: the server's per-request envelope and the calls
// the route handler makes into the layers below it. What they leave of
// the handler's time is unattributed.
var handlerStages = []string{"server.self", "api.decode", "dagio.read", "core.new_scheduler", "resbook.snapshot",
	"core.turnaround", "resbook.commit", "api.encode"}

// layerTimes runs the traced rounds and keeps, per span name, the mean
// self time per operation (µs) under the fastest-round rule the
// end-to-end timings follow. A traced round is one pass over the
// operations per root span name — "op", and for the serve workloads
// "staged" beside it — and every name is read from the round whose pass
// of its kind was fastest, so the parts of a pass come from one round
// and add up, and a disturbance during one pass does not spoil the
// other. Only the first round's spans are kept for the span file.
type layerTimes struct {
	w       runner
	tr      *tracer
	fastest map[string]int64   // ns: per root name, the lowest per-round sum of its spans
	self    map[string]float64 // per span name, of the round fastest for its root name
	calls   map[string]int     // of the first round
	failed  int
}

func newLayerTimes(w runner) *layerTimes {
	return &layerTimes{w: w, tr: newTracer(), fastest: map[string]int64{}, self: map[string]float64{}}
}

func (l *layerTimes) round(r int) error {
	l.tr.round = int32(r)
	from := len(l.tr.spans)
	runtime.GC() // as before an untraced round
	failed, err := l.w.traced(l.tr)
	if err != nil {
		return fmt.Errorf("traced round %d: %w", r, err)
	}
	l.failed += failed
	if err := l.w.settle(); err != nil {
		return fmt.Errorf("after traced round %d: %w", r, err)
	}
	self, calls, pass, total := l.tr.layerTimes(from)
	for name, ns := range self {
		root := pass[name]
		if best, ok := l.fastest[root]; !ok || total[root] < best {
			l.self[name] = float64(ns) / 1e3 / float64(l.w.ops())
		}
	}
	for root, ns := range total {
		if best, ok := l.fastest[root]; !ok || ns < best {
			l.fastest[root] = ns
		}
	}
	if r == 0 {
		l.calls = calls
	} else {
		l.tr.spans = l.tr.spans[:from]
	}
	return nil
}

// report stores the per-layer readings in vals. untraced is the fastest
// untraced round (s), the base of the tracing overhead.
func (l *layerTimes) report(vals map[string]float64, untraced float64) {
	ops := float64(l.w.ops())
	for name, metric := range spanMetrics {
		vals[metric] = l.self[name]
	}
	vals["cpa.allocate_calls"] = float64(l.calls["cpa.allocate"]) / ops
	vals["lifecycle.advance_calls"] = float64(l.calls["lifecycle.advance"]) / ops
	// CPA runs inside the scheduling calls; the traced round times it
	// beside them on the same graph, so its share comes off theirs.
	if _, ok := l.self["core.turnaround"]; ok {
		vals["core.turnaround_us"] -= l.self["cpa.allocate"]
	}
	if h, ok := l.self["server.handler"]; ok {
		staged := 0.0
		for _, name := range handlerStages {
			staged += l.self[name]
		}
		vals["server.unattributed_pct"] = (h - staged) / h * 100
	}
	// "op" spans cover what an untraced round times.
	vals["bench.trace_overhead_pct"] = (float64(l.fastest["op"])/1e9/untraced - 1) * 100
}

func minOf(xs []float64) float64 {
	best := math.Inf(1)
	for _, x := range xs {
		best = math.Min(best, x)
	}
	return best
}
