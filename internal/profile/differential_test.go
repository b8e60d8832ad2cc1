package profile

import (
	"math/rand"
	"testing"

	"resched/internal/model"
)

// These tests are the differential guarantee behind the PR 2 profile
// optimizations: the boundary-local coalesce in Reserve/Unreserve must
// leave step functions bit-identical to the retained full-sweep
// reference, and the batch EarliestFits/LatestFits sweeps must answer
// every probe exactly as the solo methods do.

// randomWindow draws a reservation window, sometimes snapped to an
// existing breakpoint so boundary-merge cases are exercised heavily.
func randomWindow(rng *rand.Rand, p *Profile) (model.Time, model.Time) {
	horizon := model.Time(30 * model.Day)
	var start model.Time
	if p.NumSegments() > 1 && rng.Intn(2) == 0 {
		segs := p.Segments()
		start = segs[rng.Intn(len(segs)-1)+1].Start
		if rng.Intn(2) == 0 {
			start += model.Time(rng.Int63n(int64(model.Hour)))
		}
	} else {
		start = model.Time(rng.Int63n(int64(horizon)))
	}
	dur := model.Duration(rng.Int63n(int64(8*model.Hour)) + 1)
	return start, start + dur
}

// TestMutatorsMatchReference applies identical random Reserve and
// Unreserve sequences to an optimized and a reference profile and
// requires identical outcomes after every operation: same error or
// none, same rendered step function, and valid invariants.
func TestMutatorsMatchReference(t *testing.T) {
	const seeds, opsPerSeed = 12, 40
	cases := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opt := New(96, 0)
		ref := New(96, 0)
		var booked []Reservation
		for op := 0; op < opsPerSeed; op++ {
			var errOpt, errRef error
			if len(booked) > 0 && rng.Intn(4) == 0 {
				// Release a booked reservation (always succeeds), or a
				// random window (both sides must reject identically).
				if rng.Intn(3) > 0 {
					k := rng.Intn(len(booked))
					r := booked[k]
					booked = append(booked[:k], booked[k+1:]...)
					errOpt = opt.Unreserve(r.Start, r.End, r.Procs)
					errRef = ref.referenceUnreserve(r.Start, r.End, r.Procs)
				} else {
					start, end := randomWindow(rng, opt)
					procs := rng.Intn(96) + 1
					errOpt = opt.Unreserve(start, end, procs)
					errRef = ref.referenceUnreserve(start, end, procs)
				}
			} else {
				start, end := randomWindow(rng, opt)
				procs := rng.Intn(110) + 1 // sometimes > capacity
				errOpt = opt.Reserve(start, end, procs)
				errRef = ref.referenceReserve(start, end, procs)
				if errOpt == nil {
					booked = append(booked, Reservation{Start: start, End: end, Procs: procs})
				}
			}
			if (errOpt == nil) != (errRef == nil) {
				t.Fatalf("seed %d op %d: optimized err %v, reference err %v", seed, op, errOpt, errRef)
			}
			if got, want := opt.String(), ref.String(); got != want {
				t.Fatalf("seed %d op %d: profiles diverged\noptimized: %s\nreference: %s", seed, op, got, want)
			}
			if err := opt.Check(); err != nil {
				t.Fatalf("seed %d op %d: invariants: %v", seed, op, err)
			}
			cases++
		}
	}
	if cases < 200 {
		t.Fatalf("only %d mutation cases; the corpus should cover at least 200", cases)
	}
}

// fuzzedProfile builds a profile carrying about n random reservations.
func fuzzedProfile(rng *rand.Rand, capacity, n int) *Profile {
	p := New(capacity, 0)
	for k := 0; k < n; k++ {
		start := model.Time(rng.Int63n(int64(20 * model.Day)))
		dur := model.Duration(rng.Int63n(int64(6*model.Hour)) + 60)
		procs := rng.Intn(capacity) + 1
		if p.MinFree(start, start+dur) >= procs {
			if err := p.Reserve(start, start+dur, procs); err != nil {
				panic(err)
			}
		}
	}
	return p
}

// TestEarliestFitsMatchesSolo requires the one-sweep batch query to be
// probe-for-probe identical to the solo EarliestFit.
func TestEarliestFitsMatchesSolo(t *testing.T) {
	cases := 0
	var out []model.Time
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := fuzzedProfile(rng, 128, 60)
		for trial := 0; trial < 8; trial++ {
			notBefore := model.Time(rng.Int63n(int64(22 * model.Day)))
			reqs := make([]FitRequest, rng.Intn(24)+1)
			for j := range reqs {
				reqs[j] = FitRequest{Procs: rng.Intn(128) + 1, Dur: model.Duration(rng.Int63n(int64(4 * model.Hour)))}
			}
			out = p.EarliestFits(reqs, notBefore, out)
			for j, r := range reqs {
				want := p.EarliestFit(r.Procs, r.Dur, notBefore)
				if out[j] != want {
					t.Fatalf("seed %d trial %d req %d (%d procs, %ds): batch %d, solo %d",
						seed, trial, j, r.Procs, r.Dur, out[j], want)
				}
				cases++
			}
		}
	}
	if cases < 200 {
		t.Fatalf("only %d probes; the corpus should cover at least 200", cases)
	}
}

// TestLatestFitsMatchesSolo requires the one-sweep batch query to be
// probe-for-probe identical to the solo LatestFit, including requests
// with no feasible start.
func TestLatestFitsMatchesSolo(t *testing.T) {
	cases := 0
	var out []model.Time
	var ok []bool
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := fuzzedProfile(rng, 128, 60)
		for trial := 0; trial < 8; trial++ {
			notBefore := model.Time(rng.Int63n(int64(10 * model.Day)))
			finishBy := notBefore + model.Time(rng.Int63n(int64(12*model.Day)))
			reqs := make([]FitRequest, rng.Intn(24)+1)
			for j := range reqs {
				// Durations sometimes exceed the window so infeasible
				// probes are part of the corpus.
				reqs[j] = FitRequest{Procs: rng.Intn(128) + 1, Dur: model.Duration(rng.Int63n(int64(16 * model.Day)))}
			}
			out, ok = p.LatestFits(reqs, notBefore, finishBy, out, ok)
			for j, r := range reqs {
				want, wantOK := p.LatestFit(r.Procs, r.Dur, notBefore, finishBy)
				if ok[j] != wantOK || (wantOK && out[j] != want) {
					t.Fatalf("seed %d trial %d req %d (%d procs, %ds in [%d,%d]): batch (%d,%v), solo (%d,%v)",
						seed, trial, j, r.Procs, r.Dur, notBefore, finishBy, out[j], ok[j], want, wantOK)
				}
				cases++
			}
		}
	}
	if cases < 200 {
		t.Fatalf("only %d probes; the corpus should cover at least 200", cases)
	}
}

// amdahlLadder appends the allocation ladder of an Amdahl task to dst:
// for m in [1, bound], one request per distinct duration at its
// smallest m, stopping once the duration cannot shrink further — the
// shape the schedulers probe.
func amdahlLadder(dst []FitRequest, seq model.Duration, alpha float64, bound int) []FitRequest {
	prev := model.Duration(-1)
	for m := 1; m <= bound; m++ {
		d := model.ExecTime(seq, alpha, m)
		if d != prev {
			dst = append(dst, FitRequest{Procs: m, Dur: d})
			prev = d
		}
		if d <= 1 {
			break
		}
	}
	return dst
}

// latestFitMaxOracle is LatestFitMax's definition: the solo LatestFit
// of every rung, the latest start, ties to the lowest index.
func latestFitMaxOracle(p Intervals, reqs []FitRequest, notBefore, finishBy model.Time) (int, model.Time, bool) {
	k, best := -1, model.Time(0)
	for j, r := range reqs {
		if s, ok := p.LatestFit(r.Procs, r.Dur, notBefore, finishBy); ok && (k < 0 || s > best) {
			k, best = j, s
		}
	}
	return k, best, k >= 0
}

// TestLatestFitMaxMatchesSolo requires both backends' LatestFitMax to
// return the oracle's request and start on random Amdahl ladders over
// light and congested profiles, with windows often snapped to
// breakpoints (or to a breakpoint plus a rung's duration, where a run
// fits exactly) or barely longer than a rung, some rungs or whole
// ladders out of the window, and zero-duration ladders.
func TestLatestFitMaxMatchesSolo(t *testing.T) {
	cases, hits, misses := 0, 0, 0
	var reqs []FitRequest
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flat := fuzzedProfile(rng, 128, 60+int(seed%2)*540)
		tree := NewPersistentFromProfile(flat)
		segs := flat.Segments()
		breakpoint := func() model.Time { return segs[rng.Intn(len(segs))].Start }
		for trial := 0; trial < 40; trial++ {
			seq := model.Duration(rng.Int63n(int64(2 * model.Day)))
			if rng.Intn(10) == 0 {
				seq = 0
			}
			reqs = amdahlLadder(reqs[:0], seq, rng.Float64(), rng.Intn(128)+1)
			rung := reqs[rng.Intn(len(reqs))].Dur
			notBefore := model.Time(rng.Int63n(int64(18 * model.Day)))
			if rng.Intn(3) == 0 {
				notBefore = breakpoint()
			}
			finishBy := notBefore + model.Time(rng.Int63n(int64(3*model.Day)))
			switch rng.Intn(4) {
			case 0:
				if b := breakpoint(); b >= notBefore {
					finishBy = b
				}
			case 1:
				if b := breakpoint() + rung; b >= notBefore {
					finishBy = b
				}
			case 2:
				finishBy = notBefore + rung + model.Time(rng.Int63n(int64(2*model.Hour)))
			}
			kW, sW, okW := latestFitMaxOracle(flat, reqs, notBefore, finishBy)
			for _, b := range []Intervals{flat, tree} {
				k, s, ok := b.LatestFitMax(reqs, notBefore, finishBy)
				if k != kW || s != sW || ok != okW {
					t.Fatalf("seed %d trial %d, %T: LatestFitMax(%d rungs, [%d,%d]) = (%d,%d,%v), solo (%d,%d,%v)",
						seed, trial, b, len(reqs), notBefore, finishBy, k, s, ok, kW, sW, okW)
				}
			}
			if okW {
				hits++
			} else {
				misses++
			}
			cases++
		}
	}
	if hits < 200 || misses < 40 {
		t.Fatalf("%d cases: %d fits, %d misses; the corpus should cover both", cases, hits, misses)
	}
}

// TestLatestFitMaxTies forces two rungs a < b to share the latest
// start s: b's Procs are free only during [s, s+Dur_b), a's until
// s+Dur_a = finishBy. Every other rung starts strictly earlier, so
// both backends must return rung a at s. Random reservations outside
// [s, finishBy) vary the rest of the profile.
func TestLatestFitMaxTies(t *testing.T) {
	const capacity = 64
	var reqs []FitRequest
	cases := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reqs = amdahlLadder(reqs[:0], model.Duration(rng.Int63n(int64(model.Day)))+600, rng.Float64()*0.5, capacity/2)
		if len(reqs) < 2 {
			continue
		}
		a := rng.Intn(len(reqs) - 1)
		b := a + 1 + rng.Intn(len(reqs)-a-1)
		s := model.Time(model.Day) + model.Time(rng.Int63n(int64(model.Day)))
		finishBy := s + reqs[a].Dur
		flat := New(capacity, 0)
		for k := 0; k < 30; k++ {
			start := model.Time(rng.Int63n(int64(4 * model.Day)))
			end := start + model.Duration(rng.Int63n(int64(6*model.Hour))+60)
			if end <= s || start >= finishBy {
				if procs := rng.Intn(capacity) + 1; flat.MinFree(start, end) >= procs {
					if err := flat.Reserve(start, end, procs); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := flat.Reserve(s, s+reqs[b].Dur, capacity-reqs[b].Procs); err != nil {
			t.Fatal(err)
		}
		if err := flat.Reserve(s+reqs[b].Dur, finishBy, capacity-reqs[a].Procs); err != nil {
			t.Fatal(err)
		}
		notBefore := s - model.Time(rng.Int63n(int64(model.Day)))
		if kW, sW, _ := latestFitMaxOracle(flat, reqs, notBefore, finishBy); kW != a || sW != s {
			t.Fatalf("seed %d: construction broken: oracle (%d,%d), want (%d,%d)", seed, kW, sW, a, s)
		}
		for _, p := range []Intervals{flat, NewPersistentFromProfile(flat)} {
			if k, st, ok := p.LatestFitMax(reqs, notBefore, finishBy); !ok || k != a || st != s {
				t.Fatalf("seed %d, %T: LatestFitMax = (%d,%d,%v), want rung %d (of tied %d and %d) at %d",
					seed, p, k, st, ok, a, a, b, s)
			}
		}
		cases++
	}
	if cases < 150 {
		t.Fatalf("only %d tie cases", cases)
	}
}

// TestLatestFitMaxRejectsNonLadder requires both backends to panic,
// with the same message, on requests that are not an allocation
// ladder or do not fit the cluster.
func TestLatestFitMaxRejectsNonLadder(t *testing.T) {
	bad := map[string][]FitRequest{
		"procs not increasing": {{Procs: 2, Dur: 10}, {Procs: 2, Dur: 5}},
		"dur not decreasing":   {{Procs: 1, Dur: 10}, {Procs: 2, Dur: 10}},
		"procs above capacity": {{Procs: 1, Dur: 10}, {Procs: 9, Dur: 5}},
		"zero procs":           {{Procs: 0, Dur: 10}},
		"negative dur":         {{Procs: 1, Dur: -1}},
	}
	catch := func(p Intervals, reqs []FitRequest) (msg any) {
		defer func() { msg = recover() }()
		p.LatestFitMax(reqs, 0, 100)
		return nil
	}
	for name, reqs := range bad {
		flat := New(8, 0)
		mf, mp := catch(flat, reqs), catch(NewPersistentFromProfile(flat), reqs)
		if mf == nil || mf != mp {
			t.Errorf("%s: flat panic %v, persistent panic %v", name, mf, mp)
		}
	}
}

// TestMinFreeSaturated pins the MinFree early-exit behavior: once an
// interval touches a fully booked segment the minimum is 0, and
// intervals that stop short of it are unaffected.
func TestMinFreeSaturated(t *testing.T) {
	p := New(8, 0)
	if err := p.Reserve(100, 200, 8); err != nil { // saturate [100,200)
		t.Fatal(err)
	}
	if err := p.Reserve(300, 400, 3); err != nil {
		t.Fatal(err)
	}
	if got := p.MinFree(0, 100); got != 8 {
		t.Fatalf("MinFree before the full segment = %d, want 8", got)
	}
	if got := p.MinFree(50, 150); got != 0 {
		t.Fatalf("MinFree overlapping the full segment = %d, want 0", got)
	}
	if got := p.MinFree(100, 500); got != 0 {
		t.Fatalf("MinFree spanning the full segment = %d, want 0 (later segments cannot recover the min)", got)
	}
	if got := p.MinFree(200, 500); got != 5 {
		t.Fatalf("MinFree after the full segment = %d, want 5", got)
	}
}
