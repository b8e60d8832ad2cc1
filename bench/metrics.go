package main

import "sort"

// metricDef names one reported metric. The tables below are the
// benchmark's contract with BENCHMARK.json (bench_test.go keeps the two
// in step): end-to-end metrics carry the bound by which they may worsen
// before a change counts as a regression, per-layer metrics are
// diagnostic and unbounded.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists what a user of the system sees: a grid client waiting
// for a schedule (throughput, latency), an operator paying for memory
// traffic (allocations), and the paper's own quality measures
// (turn-around time and CPU-hours), which catch a "speed-up" that
// changes scheduling decisions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.10},
	{"lat_p50_ms", "ms", "lower", 0.10},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_kb_per_op", "kB", "lower", 0.02},
	{"turnaround_mean_s", "s", "lower", 0.001},
	{"cpu_hours_mean", "h", "lower", 0.001},
}

// perLayer lists the single-layer readings of the traced run. Every
// workload reports every name; a layer a workload never enters reads 0.
var perLayer = []metricDef{
	{"api.decode_us", "us", "lower", 0},
	{"api.encode_us", "us", "lower", 0},
	{"api.req_bytes", "B", "lower", 0},
	{"api.resp_bytes", "B", "lower", 0},
	{"dagio.read_us", "us", "lower", 0},
	{"core.new_scheduler_us", "us", "lower", 0},
	{"resbook.snapshot_us", "us", "lower", 0},
	{"resbook.commit_us", "us", "lower", 0},
	{"resbook.release_us", "us", "lower", 0},
	{"resbook.stale_commits", "count", "lower", 0},
	{"resbook.reservations", "count", "lower", 0},
	{"profile.segments", "count", "lower", 0},
	{"cpa.allocate_us", "us", "lower", 0},
	{"cpa.allocate_calls", "count", "lower", 0},
	{"core.turnaround_us", "us", "lower", 0},
	{"core.deadline_us", "us", "lower", 0},
	{"core.tightest_us", "us", "lower", 0},
	{"profile.earliest_fits_us", "us", "lower", 0},
	{"profile.latest_fits_us", "us", "lower", 0},
	{"profile.reserve_unreserve_us", "us", "lower", 0},
	{"server.handler_us", "us", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.unattributed_pct", "%", "lower", 0},
	{"server.retries_per_op", "count", "lower", 0},
	{"server.lat_p99_ms", "ms", "lower", 0},
	{"server.lat_samples", "count", "higher", 0},
	{"lifecycle.submit_us", "us", "lower", 0},
	{"lifecycle.advance_us", "us", "lower", 0},
	{"lifecycle.advance_calls", "count", "lower", 0},
	{"lifecycle.backfills", "count", "higher", 0},
	{"lifecycle.starvation_reservations", "count", "lower", 0},
	{"lifecycle.wait_mean_s", "s", "lower", 0},
	{"lifecycle.bsld_mean", "ratio", "lower", 0},
	{"lifecycle.utilization", "ratio", "higher", 0},
	{"workload.synthesize_s", "s", "lower", 0},
	{"sim.instances_s", "s", "lower", 0},
	{"resbook.seed_s", "s", "lower", 0},
	{"bench.gc_cycles_per_kop", "count", "lower", 0},
	{"bench.round_spread_pct", "%", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// metricValue is one reported reading.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report fills a result's metric map from raw values, taking units from
// defs; a name missing from values reads 0.
func report(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// median returns the median of xs (mean of the middle two for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
