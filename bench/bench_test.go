package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

// TestMain applies the benchmark's first measurement rule to the tests:
// one P, as main sets it.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesCode keeps BENCHMARK.json and the metric and
// workload tables in step: same names, units, directions and bounds,
// in the same order.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest has %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200 characters", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		d := endToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: manifest has %+v, code has %+v", i, e, d)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(m.PerLayer), len(perLayer))
	}
	for i, e := range m.PerLayer {
		d := perLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer metric %d: manifest has %+v, code has %+v", i, e, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q with unit %q breaks the naming rules", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// small sizes each workload for the tests: a few dozen operations, two
// or three rounds.
func small(name string, seed int64) options {
	return options{workload: name, seed: seed, rounds: 2, scale: 0.02, setups: 1}
}

// checkMetrics requires exactly the metrics of defs, each with its unit
// and a finite value.
func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", d.Name)
		case v.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, want %q", d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", d.Name, v.Value)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result does not encode: %v", err)
	}
}

// TestEndToEnd runs every workload at a small scale and checks what the
// contract promises: every end-to-end metric reported and non-zero, no
// failed operation, the same seed reproducing checksum and quality
// metrics exactly, and another seed changing the inputs.
func TestEndToEnd(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			first, info, err := run(small(spec.name, 1))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, first, endToEnd)
			if !first.Correct || first.Failed != 0 || first.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", first.Correct, first.Attempted, first.Failed)
			}
			for _, d := range endToEnd {
				if first.Metrics[d.Name].Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", d.Name, first.Metrics[d.Name].Value)
				}
			}
			if info.rounds != 2 {
				t.Errorf("%d timed rounds, want 2", info.rounds)
			}

			again, info2, err := run(small(spec.name, 1))
			if err != nil {
				t.Fatal(err)
			}
			if info2.checksum != info.checksum {
				t.Errorf("seed 1 gave checksum %016x, then %016x", info.checksum, info2.checksum)
			}
			for _, name := range []string{"turnaround_mean_s", "cpu_hours_mean"} {
				if a, b := first.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("seed 1 gave %s = %v, then %v", name, a, b)
				}
			}

			_, other, err := run(small(spec.name, 2))
			if err != nil {
				t.Fatal(err)
			}
			if other.checksum == info.checksum {
				t.Errorf("seeds 1 and 2 gave the same checksum %016x: the seed does not reach the inputs", info.checksum)
			}
		})
	}
}

// TestTraced runs the traced mode of every workload: every per-layer
// metric reported, spans written for every layer the workload enters,
// and on both serve workloads the staged calls of the same order as the
// handler's time. How closely they account for it — the "parts sum to
// SchedulePost" row of ROADMAP item 1, within 10 % — is a wall-clock
// ratio, read at full scale from server.unattributed_pct (README.md) and
// not asserted on a few dozen operations on a busy host.
func TestTraced(t *testing.T) {
	wantSpans := map[string][]string{
		"serve_commit": {"op", "server.handler", "api.decode", "dagio.read", "core.new_scheduler", "resbook.snapshot",
			"core.turnaround", "cpa.allocate", "resbook.commit", "api.encode", "resbook.release"},
		"serve_dryrun_small": {"op", "server.handler", "api.decode", "dagio.read", "core.new_scheduler", "resbook.snapshot",
			"core.turnaround", "cpa.allocate", "api.encode"},
		"grid_offline":  {"op", "core.new_scheduler", "core.turnaround", "core.tightest", "core.deadline", "cpa.allocate"},
		"replay_online": {"op", "lifecycle.submit", "lifecycle.advance"},
	}
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			opt := small(spec.name, 1)
			opt.trace = true
			opt.rounds = 4 // the breakdown is the fastest traced round's: give it a choice
			opt.spans = filepath.Join(t.TempDir(), "spans.json")
			res, _, err := run(opt)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v failed=%d", res.Correct, res.Failed)
			}

			raw, err := os.ReadFile(opt.spans)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil {
				t.Fatal(err)
			}
			names := map[string]bool{}
			for i, s := range spans {
				names[s.Name] = true
				if s.End < s.Start || int(s.Parent) >= i {
					t.Fatalf("span %d malformed: %+v", i, s)
				}
			}
			for _, name := range wantSpans[spec.name] {
				if !names[name] {
					t.Errorf("no %q span recorded", name)
				}
			}

			if h := res.Metrics["server.handler_us"].Value; h > 0 {
				// staged within [h/2, 2h]
				if u := res.Metrics["server.unattributed_pct"].Value; u < -100 || u > 50 {
					t.Errorf("staged calls leave %.1f%% of the handler's %.0f µs unexplained, want them within a factor of two of it", u, h)
				}
			} else if spec.name == "serve_commit" || spec.name == "serve_dryrun_small" {
				t.Error("no handler time recorded")
			}
		})
	}
}

// TestQuartiles pins iqrShare to Python's statistics.quantiles(n=4),
// the rule the driver applies.
func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	// statistics.quantiles([1,2,4,8,16], n=4) == [1.5, 4.0, 12.0]
	if got, want := iqrShare([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}
