package multicluster

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"resched/internal/dag"
	"resched/internal/daggen"
	"resched/internal/model"
	"resched/internal/profile"
)

func chainGraph(n int, seq model.Duration, alpha float64) *dag.Graph {
	g := dag.New(n)
	for i := 0; i < n; i++ {
		g.AddTask(dag.Task{Seq: seq, Alpha: alpha})
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(i-1, i)
	}
	return g
}

func twoSites(pa, pb int, now model.Time) Env {
	return Env{
		Now: now,
		Clusters: []Cluster{
			{Name: "siteA", P: pa, Avail: profile.New(pa, now)},
			{Name: "siteB", P: pb, Avail: profile.New(pb, now)},
		},
	}
}

func TestEnvValidation(t *testing.T) {
	g := chainGraph(2, model.Hour, 0.1)
	cases := []Env{
		{Now: 0},
		{Now: 0, Clusters: []Cluster{{Name: "x", P: 0, Avail: profile.New(1, 0)}}},
		{Now: 0, Clusters: []Cluster{{Name: "x", P: 4, Avail: profile.New(8, 0)}}},
		{Now: 0, Clusters: []Cluster{{Name: "x", P: 4, Avail: profile.New(4, 100)}}},
		{Now: 0, Clusters: []Cluster{{Name: "x", P: 4, Avail: profile.New(4, 0), Q: 9}}},
	}
	for i, env := range cases {
		if _, err := Turnaround(g, env, Options{}); err == nil {
			t.Fatalf("case %d: invalid env accepted", i)
		}
	}
	if _, err := Turnaround(g, twoSites(4, 4, 0), Options{StageDelay: -1}); err == nil {
		t.Fatal("negative stage delay accepted")
	}
}

func TestSchedulePrefersIdleSite(t *testing.T) {
	// Site A is fully booked for 10 hours; site B is idle. A serial
	// task must land on B immediately.
	g := chainGraph(1, model.Hour, 1)
	env := twoSites(8, 8, 0)
	if err := env.Clusters[0].Avail.Reserve(0, 10*model.Hour, 8); err != nil {
		t.Fatal(err)
	}
	sched, err := Turnaround(g, env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, env, sched, Options{}); err != nil {
		t.Fatal(err)
	}
	if sched.Tasks[0].Cluster != 1 || sched.Tasks[0].Start != 0 {
		t.Fatalf("placement %+v, want immediate start on siteB", sched.Tasks[0])
	}
}

func TestStageDelayDiscouragesSiteHopping(t *testing.T) {
	// A chain on two equal idle sites: with a large staging delay the
	// whole chain must stay on one site.
	g := chainGraph(5, model.Hour, 0.1)
	env := twoSites(16, 16, 0)
	sched, err := Turnaround(g, env, Options{StageDelay: 6 * model.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, env, sched, Options{StageDelay: 6 * model.Hour}); err != nil {
		t.Fatal(err)
	}
	site := sched.Tasks[0].Cluster
	for i, pl := range sched.Tasks {
		if pl.Cluster != site {
			t.Fatalf("task %d hopped to site %d despite a 6h staging delay", i, pl.Cluster)
		}
	}
}

func TestForkSpreadsAcrossSites(t *testing.T) {
	// A wide fork of serial tasks on two small sites: with zero staging
	// cost, both sites should be used.
	g := dag.New(9)
	src := g.AddTask(dag.Task{Seq: model.Minute, Alpha: 1})
	for i := 0; i < 8; i++ {
		id := g.AddTask(dag.Task{Seq: 4 * model.Hour, Alpha: 1})
		g.MustAddEdge(src, id)
	}
	env := twoSites(4, 4, 0)
	sched, err := Turnaround(g, env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, env, sched, Options{}); err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, pl := range sched.Tasks[1:] {
		used[pl.Cluster] = true
	}
	if len(used) != 2 {
		t.Fatalf("branches used sites %v, want both", used)
	}
}

func TestHeterogeneousSpeedScaling(t *testing.T) {
	// One slow and one 4x site, both idle: a serial task must pick the
	// fast site and finish in a quarter of the time.
	g := chainGraph(1, model.Hour, 1)
	env := Env{
		Now: 0,
		Clusters: []Cluster{
			{Name: "slow", P: 8, Avail: profile.New(8, 0), Speed: 1},
			{Name: "fast", P: 8, Avail: profile.New(8, 0), Speed: 4},
		},
	}
	sched, err := Turnaround(g, env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, env, sched, Options{}); err != nil {
		t.Fatal(err)
	}
	if sched.Tasks[0].Cluster != 1 {
		t.Fatalf("task placed on the slow site: %+v", sched.Tasks[0])
	}
	if got := sched.Turnaround(); got != model.Hour/4 {
		t.Fatalf("turnaround = %d, want %d", got, model.Hour/4)
	}
}

func TestHeterogeneousValidation(t *testing.T) {
	g := chainGraph(1, 100, 1)
	for _, tc := range []struct {
		speed float64
		ok    bool
	}{
		{0, true},
		{1, true},
		{4, true},
		{1e-9, true}, // 100 s becomes 1e11 s: slow, but on the horizon
		{-1, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{1e-300, false}, // 100 s would become 1e302 s and overflow int64
	} {
		env := twoSites(4, 4, 0)
		env.Clusters[0].Speed = tc.speed
		sched, err := Turnaround(g, env, Options{})
		if tc.ok {
			if err != nil {
				t.Errorf("speed %v: %v", tc.speed, err)
				continue
			}
			if err := Verify(g, env, sched, Options{}); err != nil {
				t.Errorf("speed %v: %v", tc.speed, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("speed %v accepted: tasks run %d s", tc.speed, sched.Tasks[0].End-sched.Tasks[0].Start)
			continue
		}
		if name := env.Clusters[0].Name; !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Errorf("speed %v: error %q does not name site %q", tc.speed, err, name)
		}
		if _, err := Deadline(g, env, Options{}, model.Hour); err == nil {
			t.Errorf("speed %v accepted by Deadline", tc.speed)
		}
	}
}

func TestSeqOnRounding(t *testing.T) {
	c := Cluster{Speed: 3}
	if got := c.seqOn(10); got != 3 {
		t.Fatalf("seqOn(10) at speed 3 = %d, want 3", got)
	}
	if got := c.seqOn(1); got != 1 {
		t.Fatalf("seqOn(1) = %d, tasks must keep at least a second", got)
	}
	if got := (Cluster{}).seqOn(100); got != 100 {
		t.Fatalf("zero speed must mean 1.0: %d", got)
	}
	if got := c.seqOn(0); got != 0 {
		t.Fatalf("seqOn(0) = %d", got)
	}
}

func TestAllocPolicyTradesCPUForTurnaround(t *testing.T) {
	// A chain (no task parallelism) of poorly-scaling tasks
	// (alpha = 0.5 caps the CPA allocation at 7 of 32 processors): the
	// unbounded M-HEFT-style policy must be at least as fast but
	// strictly more expensive in CPU-hours than the CPA-bounded
	// default.
	g := chainGraph(4, 2*model.Hour, 0.5)
	env := twoSites(32, 32, 0)
	cpaSched, err := Turnaround(g, env, Options{Policy: PolicyCPA})
	if err != nil {
		t.Fatal(err)
	}
	unb, err := Turnaround(g, env, Options{Policy: PolicyUnbounded})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, env, unb, Options{}); err != nil {
		t.Fatal(err)
	}
	if unb.Turnaround() > cpaSched.Turnaround() {
		t.Fatalf("unbounded %d slower than CPA-bounded %d on a chain", unb.Turnaround(), cpaSched.Turnaround())
	}
	if unb.CPUHours() <= cpaSched.CPUHours() {
		t.Fatalf("unbounded CPU-hours %.1f not above CPA-bounded %.1f", unb.CPUHours(), cpaSched.CPUHours())
	}
	if PolicyCPA.String() != "cpa" || PolicyUnbounded.String() != "unbounded" || AllocPolicy(7).String() == "" {
		t.Fatal("AllocPolicy.String broken")
	}
	if _, err := Turnaround(g, env, Options{Policy: AllocPolicy(7)}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestDeadlineMultiSite(t *testing.T) {
	g := chainGraph(3, model.Hour, 1)
	env := twoSites(4, 4, 0)
	// Site A blocked for the first two hours; site B free.
	if err := env.Clusters[0].Avail.Reserve(0, 2*model.Hour, 4); err != nil {
		t.Fatal(err)
	}
	opt := Options{}
	sched, err := Deadline(g, env, opt, 3*model.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, env, sched, opt); err != nil {
		t.Fatal(err)
	}
	if got := sched.Completion(); got > 3*model.Hour {
		t.Fatalf("completion %d after deadline", got)
	}
	// The 3-hour serial chain has zero slack: the first two tasks must
	// avoid the blocked window on site A (only site B can host them).
	for i, pl := range sched.Tasks[:2] {
		if pl.Cluster == 0 {
			t.Fatalf("task %d placed inside site A's blocked window: %+v", i, pl)
		}
	}
	// An impossible deadline reports infeasibility.
	if _, err := Deadline(g, env, opt, 2*model.Hour); err == nil {
		t.Fatal("infeasible deadline accepted")
	}
	if _, err := Deadline(g, env, opt, -5); err == nil {
		t.Fatal("deadline before now accepted")
	}
}

func TestDeadlineStagingDelayAcrossSites(t *testing.T) {
	// Two tasks forced onto different sites by capacity: the staging
	// delay must separate them.
	g := chainGraph(2, model.Hour, 1)
	env := Env{
		Now: 0,
		Clusters: []Cluster{
			{Name: "a", P: 2, Avail: profile.New(2, 0)},
			{Name: "b", P: 2, Avail: profile.New(2, 0)},
		},
	}
	// Site a is only free during [0, 1h); site b only after hour 3.
	// The sole feasible schedule splits the chain across the sites and
	// must leave the staging delay between the two tasks.
	if err := env.Clusters[0].Avail.Reserve(model.Hour, 10*model.Hour, 2); err != nil {
		t.Fatal(err)
	}
	if err := env.Clusters[1].Avail.Reserve(0, 3*model.Hour, 2); err != nil {
		t.Fatal(err)
	}
	opt := Options{StageDelay: 30 * model.Minute}
	sched, err := Deadline(g, env, opt, 4*model.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, env, sched, opt); err != nil {
		t.Fatal(err)
	}
	if sched.Tasks[0].Cluster == sched.Tasks[1].Cluster {
		t.Fatalf("expected a cross-site split: %+v", sched.Tasks)
	}
	if sched.Tasks[1].Start < sched.Tasks[0].End+30*model.Minute {
		t.Fatalf("staging delay not honored: %+v", sched.Tasks)
	}
}

func TestDeadlineRandomValid(t *testing.T) {
	f := randomPlatformCase(false)
	for seed := int64(50); seed < 60; seed++ {
		if !f(seed) {
			t.Fatalf("seed %d: invalid", seed)
		}
	}
	// Deadline variant over the same platforms.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := daggen.Default()
		spec.N = rng.Intn(15) + 4
		g := daggen.MustGenerate(spec, rng)
		env := twoSites(rng.Intn(12)+4, rng.Intn(12)+4, 0)
		opt := Options{StageDelay: model.Duration(rng.Int63n(int64(model.Hour)))}
		fwd, err := Turnaround(g, env, opt)
		if err != nil {
			t.Fatal(err)
		}
		deadline := env.Now + 2*fwd.Turnaround()
		sched, err := Deadline(g, env, opt, deadline)
		if err != nil {
			continue // heuristics may fail on tight instances
		}
		if err := Verify(g, env, sched, opt); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sched.Completion() > deadline {
			t.Fatalf("seed %d: deadline missed", seed)
		}
	}
}

func TestVerifyCatchesCrossSiteViolations(t *testing.T) {
	g := chainGraph(2, model.Hour, 1)
	env := twoSites(4, 4, 0)
	opt := Options{StageDelay: model.Hour}
	sched, err := Turnaround(g, env, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, env, sched, opt); err != nil {
		t.Fatal(err)
	}
	// Move the second task to the other site without paying staging.
	bad := &Schedule{Now: sched.Now, Tasks: append([]Placement(nil), sched.Tasks...)}
	bad.Tasks[1].Cluster = 1 - bad.Tasks[1].Cluster
	if err := Verify(g, env, bad, opt); err == nil {
		t.Fatal("missing staging delay not caught")
	}
	bad = &Schedule{Now: sched.Now, Tasks: append([]Placement(nil), sched.Tasks...)}
	bad.Tasks[0].Cluster = 7
	if err := Verify(g, env, bad, opt); err == nil {
		t.Fatal("unknown site not caught")
	}
	if err := Verify(g, env, nil, opt); err == nil {
		t.Fatal("nil schedule accepted")
	}
}

// Property: multi-site schedules over random platforms verify.
func TestTurnaroundRandomValid(t *testing.T) {
	if err := quick.Check(randomPlatformCase(false), &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// On fixed seeds (so the expectation is stable), adding a second idle
// site never hurts the greedy scheduler on these instances.
func TestTwoSitesHelpOnFixedSeeds(t *testing.T) {
	f := randomPlatformCase(true)
	for seed := int64(0); seed < 12; seed++ {
		if !f(seed) {
			t.Fatalf("seed %d: two-site schedule worse than single-site baseline", seed)
		}
	}
}

// randomPlatformCase builds the shared random-instance checker; with
// compareBaseline it additionally requires the two-site schedule to be
// no worse than running on site A alone.
func randomPlatformCase(compareBaseline bool) func(int64) bool {
	return func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := daggen.Default()
		spec.N = rng.Intn(18) + 4
		g := daggen.MustGenerate(spec, rng)
		env := twoSites(rng.Intn(12)+4, rng.Intn(12)+4, model.Time(rng.Int63n(1000)))
		// Random background reservations on each site.
		for c := range env.Clusters {
			p := env.Clusters[c].P
			for k := 0; k < rng.Intn(8); k++ {
				start := env.Now + model.Time(rng.Int63n(int64(model.Day)))
				dur := model.Duration(rng.Int63n(int64(4*model.Hour)) + 600)
				procs := rng.Intn(p) + 1
				if env.Clusters[c].Avail.MinFree(start, start+dur) >= procs {
					if err := env.Clusters[c].Avail.Reserve(start, start+dur, procs); err != nil {
						return false
					}
				}
			}
		}
		opt := Options{StageDelay: model.Duration(rng.Int63n(int64(model.Hour)))}
		sched, err := Turnaround(g, env, opt)
		if err != nil {
			return false
		}
		if err := Verify(g, env, sched, opt); err != nil {
			return false
		}
		if !compareBaseline {
			return true
		}
		// Single-site baseline: run on site A alone.
		solo := Env{Now: env.Now, Clusters: env.Clusters[:1]}
		ref, err := Turnaround(g, solo, opt)
		if err != nil {
			return false
		}
		return sched.Turnaround() <= ref.Turnaround()
	}
}
