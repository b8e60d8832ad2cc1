package profile

import (
	"math/rand"
	"testing"
	"testing/quick"

	"resched/internal/model"
)

func mustReserve(t *testing.T, p *Profile, start, end model.Time, procs int) {
	t.Helper()
	if err := p.Reserve(start, end, procs); err != nil {
		t.Fatalf("Reserve(%d,%d,%d): %v", start, end, procs, err)
	}
	if err := p.Check(); err != nil {
		t.Fatalf("after Reserve(%d,%d,%d): %v", start, end, procs, err)
	}
}

func TestNewProfile(t *testing.T) {
	p := New(8, 100)
	if p.Capacity() != 8 || p.Origin() != 100 {
		t.Fatalf("New: capacity %d origin %d", p.Capacity(), p.Origin())
	}
	if got := p.FreeAt(100); got != 8 {
		t.Fatalf("FreeAt(origin) = %d, want 8", got)
	}
	if got := p.FreeAt(1 << 40); got != 8 {
		t.Fatalf("FreeAt(far future) = %d, want 8", got)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 0)
}

func TestReserveAndFreeAt(t *testing.T) {
	p := New(10, 0)
	mustReserve(t, p, 100, 200, 4)
	mustReserve(t, p, 150, 250, 3)
	cases := []struct {
		t    model.Time
		want int
	}{
		{0, 10}, {99, 10}, {100, 6}, {149, 6}, {150, 3}, {199, 3}, {200, 7}, {249, 7}, {250, 10},
	}
	for _, c := range cases {
		if got := p.FreeAt(c.t); got != c.want {
			t.Fatalf("FreeAt(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	if got := p.ReservedAt(150); got != 7 {
		t.Fatalf("ReservedAt(150) = %d, want 7", got)
	}
}

func TestReserveErrors(t *testing.T) {
	p := New(4, 1000)
	if err := p.Reserve(999, 1100, 1); err == nil {
		t.Fatal("reservation before origin accepted")
	}
	if err := p.Reserve(1100, 1100, 1); err == nil {
		t.Fatal("empty reservation accepted")
	}
	if err := p.Reserve(1200, 1100, 1); err == nil {
		t.Fatal("inverted reservation accepted")
	}
	if err := p.Reserve(1100, 1200, 5); err == nil {
		t.Fatal("oversize reservation accepted")
	}
	if err := p.Reserve(1100, 1200, 0); err == nil {
		t.Fatal("zero-processor reservation accepted")
	}
	if err := p.Reserve(1100, model.Infinity, 1); err == nil {
		t.Fatal("infinite reservation accepted")
	}
	mustReserve(t, p, 1100, 1200, 3)
	if err := p.Reserve(1150, 1250, 2); err == nil {
		t.Fatal("overcommitting reservation accepted")
	}
	// The failed Reserve must not have modified the profile.
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if got := p.FreeAt(1220); got != 4 {
		t.Fatalf("failed reserve leaked state: FreeAt(1220) = %d, want 4", got)
	}
}

func TestMinFreeAndAvgFree(t *testing.T) {
	p := New(10, 0)
	mustReserve(t, p, 100, 200, 4)
	if got := p.MinFree(0, 100); got != 10 {
		t.Fatalf("MinFree before = %d", got)
	}
	if got := p.MinFree(50, 150); got != 6 {
		t.Fatalf("MinFree overlapping = %d, want 6", got)
	}
	if got := p.MinFree(200, 300); got != 10 {
		t.Fatalf("MinFree after = %d", got)
	}
	// [0,200): 100s at 10 free + 100s at 6 free -> avg 8.
	if got := p.AvgFree(0, 200); got != 8 {
		t.Fatalf("AvgFree = %v, want 8", got)
	}
}

func TestEarliestFitBasics(t *testing.T) {
	p := New(10, 0)
	mustReserve(t, p, 100, 200, 8) // only 2 free in [100,200)
	cases := []struct {
		procs     int
		dur       model.Duration
		notBefore model.Time
		want      model.Time
	}{
		{2, 50, 0, 0},     // fits immediately
		{3, 50, 0, 0},     // fits before the reservation
		{3, 150, 0, 200},  // too long to finish by 100, 3 > 2 free -> after
		{3, 100, 0, 0},    // exactly fills [0,100)
		{2, 1000, 50, 50}, // 2 procs always free
		{3, 10, 150, 200}, // inside busy window, must wait
		{10, 1, 100, 200}, // full machine
		{1, 0, 42, 42},    // zero duration
		{1, 5, -50, 0},    // notBefore clamped to origin
	}
	for _, c := range cases {
		if got := p.EarliestFit(c.procs, c.dur, c.notBefore); got != c.want {
			t.Fatalf("EarliestFit(%d,%d,%d) = %d, want %d", c.procs, c.dur, c.notBefore, got, c.want)
		}
	}
}

func TestEarliestFitSpansSegments(t *testing.T) {
	p := New(10, 0)
	mustReserve(t, p, 100, 200, 4) // 6 free
	mustReserve(t, p, 200, 300, 2) // 8 free
	// 5 processors for 250s starting at 50: [50,300) has min free 6 >= 5.
	if got := p.EarliestFit(5, 250, 50); got != 50 {
		t.Fatalf("EarliestFit = %d, want 50 (run spans three segments)", got)
	}
	// 7 processors for 150s: blocked until 200? [200,300) has 8 free, and beyond is 10.
	if got := p.EarliestFit(7, 150, 0); got != 200 {
		t.Fatalf("EarliestFit = %d, want 200", got)
	}
}

func TestLatestFitBasics(t *testing.T) {
	p := New(10, 0)
	mustReserve(t, p, 100, 200, 8) // 2 free in [100,200)
	cases := []struct {
		procs     int
		dur       model.Duration
		notBefore model.Time
		finishBy  model.Time
		want      model.Time
		ok        bool
	}{
		{3, 50, 0, 300, 250, true},  // latest run is after the busy window
		{3, 50, 0, 100, 50, true},   // must finish before the busy window
		{3, 50, 0, 90, 40, true},    // clipped deadline
		{3, 101, 0, 100, 0, false},  // window too small
		{2, 50, 0, 150, 100, true},  // 2 procs fit inside the busy window
		{3, 50, 60, 100, 50, false}, // notBefore makes it infeasible
		{10, 10, 0, 100, 90, true},  // full machine before reservation
		{10, 10, 0, 205, 90, true},  // can't fit full machine ending at 205
		{1, 0, 0, 77, 77, true},     // zero duration
		{3, 50, 260, 300, 0, false}, // notBefore after last feasible start... 260+50 > 300? 250 needed
	}
	for _, c := range cases {
		got, ok := p.LatestFit(c.procs, c.dur, c.notBefore, c.finishBy)
		if ok != c.ok || (ok && got != c.want) {
			t.Fatalf("LatestFit(%d,%d,%d,%d) = (%d,%v), want (%d,%v)",
				c.procs, c.dur, c.notBefore, c.finishBy, got, ok, c.want, c.ok)
		}
	}
}

func TestLatestFitRunSpanningSegments(t *testing.T) {
	p := New(10, 0)
	mustReserve(t, p, 100, 200, 4)
	mustReserve(t, p, 200, 300, 2)
	// 6 procs, 180s, finish by 290: [100,200) has 6, [200,290) has 8.
	// Latest start = 290-180 = 110, feasible (min free 6).
	got, ok := p.LatestFit(6, 180, 0, 290)
	if !ok || got != 110 {
		t.Fatalf("LatestFit = (%d,%v), want (110,true)", got, ok)
	}
	// 7 procs, 150s, finish by 350: run [300,350) too short, run [200,300)
	// has 8 free: latest start 350-150=200. [200,350) min free is 8,10 -> 7 ok.
	got, ok = p.LatestFit(7, 150, 0, 350)
	if !ok || got != 200 {
		t.Fatalf("LatestFit = (%d,%v), want (200,true)", got, ok)
	}
}

func TestFromReservations(t *testing.T) {
	rs := []Reservation{
		{Start: 50, End: 150, Procs: 3},
		{Start: -100, End: 60, Procs: 2},  // clipped to [0,60)
		{Start: -100, End: -50, Procs: 9}, // entirely in the past: dropped
	}
	p, err := FromReservations(8, 0, rs)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.FreeAt(0); got != 6 {
		t.Fatalf("FreeAt(0) = %d, want 6", got)
	}
	if got := p.FreeAt(55); got != 3 {
		t.Fatalf("FreeAt(55) = %d, want 3", got)
	}
	if got := p.FreeAt(70); got != 5 {
		t.Fatalf("FreeAt(70) = %d, want 5", got)
	}
	if _, err := FromReservations(4, 0, []Reservation{{0, 10, 3}, {5, 15, 3}}); err == nil {
		t.Fatal("overcommitted reservation set accepted")
	}
}

func TestReservationsRoundTrip(t *testing.T) {
	p := New(10, 0)
	mustReserve(t, p, 100, 200, 4)
	mustReserve(t, p, 300, 400, 10)
	rs := p.Reservations()
	if len(rs) != 2 {
		t.Fatalf("Reservations = %v", rs)
	}
	if rs[0] != (Reservation{100, 200, 4}) || rs[1] != (Reservation{300, 400, 10}) {
		t.Fatalf("Reservations = %v", rs)
	}
	if rs[0].Duration() != 100 {
		t.Fatalf("Duration = %d", rs[0].Duration())
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New(6, 0)
	mustReserve(t, p, 10, 20, 2)
	c := p.Clone()
	mustReserve(t, c, 10, 20, 4)
	if got := p.FreeAt(15); got != 4 {
		t.Fatalf("clone mutation leaked: FreeAt = %d, want 4", got)
	}
	if got := c.FreeAt(15); got != 0 {
		t.Fatalf("clone FreeAt = %d, want 0", got)
	}
}

// randomProfile commits a random feasible reservation sequence.
func randomProfile(rng *rand.Rand, cap int) *Profile {
	p := New(cap, 0)
	for k := 0; k < 30; k++ {
		start := model.Time(rng.Intn(1000))
		end := start + model.Duration(rng.Intn(500)+1)
		procs := rng.Intn(cap) + 1
		if p.MinFree(start, end) >= procs {
			if err := p.Reserve(start, end, procs); err != nil {
				panic(err)
			}
		}
	}
	return p
}

// Property: EarliestFit returns a start that actually fits and is no
// earlier than requested; no earlier fit exists at segment boundaries.
func TestEarliestFitProperty(t *testing.T) {
	f := func(seed int64, procsRaw, durRaw uint16, nbRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		cap := rng.Intn(20) + 1
		p := randomProfile(rng, cap)
		procs := int(procsRaw)%cap + 1
		dur := model.Duration(durRaw%800) + 1
		notBefore := model.Time(nbRaw % 1200)
		s := p.EarliestFit(procs, dur, notBefore)
		if s < notBefore {
			return false
		}
		if p.MinFree(s, s+dur) < procs {
			return false
		}
		// Minimality: starting one second earlier must not fit (unless
		// blocked only by notBefore).
		if s > notBefore && p.MinFree(s-1, s-1+dur) >= procs {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: LatestFit returns a maximal feasible start within the
// window, and reports false only when no feasible start exists (checked
// by brute force over a bounded window).
func TestLatestFitProperty(t *testing.T) {
	f := func(seed int64, procsRaw, durRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		cap := rng.Intn(16) + 1
		p := randomProfile(rng, cap)
		procs := int(procsRaw)%cap + 1
		dur := model.Duration(durRaw%300) + 1
		notBefore := model.Time(rng.Intn(800))
		finishBy := notBefore + model.Time(rng.Intn(900))
		s, ok := p.LatestFit(procs, dur, notBefore, finishBy)
		// Brute force: scan candidate starts at all segment-derived
		// boundaries plus the window edge.
		bestOK := false
		var best model.Time
		for cand := finishBy - dur; cand >= notBefore; cand-- {
			if p.MinFree(cand, cand+dur) >= procs {
				bestOK = true
				best = cand
				break
			}
		}
		if ok != bestOK {
			return false
		}
		return !ok || s == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any feasible reservation sequence the invariants hold
// and total reserved area equals the sum of committed areas.
func TestReserveAreaConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cap := rng.Intn(20) + 2
		p := New(cap, 0)
		var area model.Duration
		for k := 0; k < 40; k++ {
			start := model.Time(rng.Intn(2000))
			end := start + model.Duration(rng.Intn(300)+1)
			procs := rng.Intn(cap) + 1
			if p.MinFree(start, end) >= procs {
				if err := p.Reserve(start, end, procs); err != nil {
					return false
				}
				area += model.Duration(procs) * (end - start)
			}
		}
		if err := p.Check(); err != nil {
			return false
		}
		// Integrate reserved processors over the horizon.
		var got model.Duration
		for _, r := range p.Reservations() {
			got += model.Duration(r.Procs) * (r.End - r.Start)
		}
		return got == area
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAvgFreePrecision(t *testing.T) {
	p := New(4, 0)
	mustReserve(t, p, 0, 50, 4)
	// [0,100): 50s at 0 free, 50s at 4 free -> 2.
	if got := p.AvgFree(0, 100); got != 2 {
		t.Fatalf("AvgFree = %v, want 2", got)
	}
	// Window clamped to origin.
	if got := p.AvgFree(-100, 50); got != 0 {
		t.Fatalf("AvgFree clamped = %v, want 0", got)
	}
}

// TestLatestFitQueriesAllocationFree pins the schedulers' probes at
// zero allocations on a warm profile of either backend: LatestFitMax's
// staircase and LatestFits' run ends live in the flat profile's
// scratch, the batch queries write into the caller's buffers, and the
// persistent tree's read descents (floor, succKey, rangeMin,
// firstBelow, lastFeasibleUpTo, lastBlockingUpTo, and firstAbove under
// Unreserve's checks) allocate nothing.
func TestLatestFitQueriesAllocationFree(t *testing.T) {
	p := fuzzedProfile(rand.New(rand.NewSource(1)), 128, 60)
	hold := p.EarliestFit(1, model.Hour, 13*model.Day)
	mustReserve(t, p, hold, hold+model.Hour, 1)
	tree := NewPersistentFromProfile(p)
	reqs := amdahlLadder(nil, model.Duration(6*model.Hour), 0.1, 128)
	for name, iv := range map[string]Intervals{"flat": p, "persistent": tree} {
		out, ok := iv.LatestFits(reqs, model.Day, 12*model.Day, nil, nil)
		starts := iv.EarliestFits(reqs, model.Day, nil)
		queries := map[string]func(){
			"EarliestFit":  func() { iv.EarliestFit(64, 2*model.Hour, model.Day) },
			"LatestFit":    func() { iv.LatestFit(64, 2*model.Hour, model.Day, 12*model.Day) },
			"MinFree":      func() { iv.MinFree(model.Day, 12*model.Day) },
			"EarliestFits": func() { starts = iv.EarliestFits(reqs, model.Day, starts) },
			"LatestFits":   func() { out, ok = iv.LatestFits(reqs, model.Day, 12*model.Day, out, ok) },
			"LatestFitMax": func() { iv.LatestFitMax(reqs, model.Day, 12*model.Day) },
		}
		if name == "persistent" {
			queries["unreserveChecks"] = func() {
				if err := tree.unreserveChecks(hold, hold+model.Hour, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		for query, f := range queries {
			f()
			if n := testing.AllocsPerRun(50, f); n != 0 {
				t.Errorf("%s: %s allocates %.0f times per call, want 0", name, query, n)
			}
		}
	}
}
