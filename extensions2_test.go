package resched_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"resched"
)

func TestDynamicRunFacade(t *testing.T) {
	g := exampleGraph(t)
	env := resched.Env{P: 16, Now: 0, Avail: resched.NewProfile(16, 0), Q: 16}
	comp := resched.DefaultCompetitor(16)
	comp.Rate = 0.5
	res, err := resched.DynamicRun(g, env, comp, resched.DynamicRebook, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule == nil || res.PlannedTurnaround <= 0 {
		t.Fatalf("result %+v", res)
	}
	// The naive strategy surfaces the sentinel error under pressure.
	comp.Rate = 8
	sawConflict := false
	for seed := int64(0); seed < 8 && !sawConflict; seed++ {
		_, err := resched.DynamicRun(g, env, comp, resched.DynamicNaive, rand.New(rand.NewSource(seed)))
		if err != nil {
			if !errors.Is(err, resched.ErrDynamicConflict) {
				t.Fatal(err)
			}
			sawConflict = true
		}
	}
	if !sawConflict {
		t.Fatal("naive strategy never conflicted at rate 8")
	}
}

func TestScheduleIOFacade(t *testing.T) {
	g := exampleGraph(t)
	env := resched.Env{P: 16, Now: 0, Avail: resched.NewProfile(16, 0), Q: 16}
	s, err := resched.NewScheduler(g)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := s.Turnaround(env, resched.BLCPAR, resched.BDCPAR)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := resched.WriteSchedule(&buf, g, sched); err != nil {
		t.Fatal(err)
	}
	back, err := resched.ReadSchedule(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(env, back); err != nil {
		t.Fatal(err)
	}

	rs := []resched.Reservation{{Start: 10, End: 20, Procs: 3}}
	buf.Reset()
	if err := resched.WriteReservations(&buf, 8, 5, rs); err != nil {
		t.Fatal(err)
	}
	procs, now, rs2, err := resched.ReadReservations(&buf)
	if err != nil || procs != 8 || now != 5 || len(rs2) != 1 {
		t.Fatalf("reservations round trip: %d %d %v %v", procs, now, rs2, err)
	}
}

func TestPessimismFacade(t *testing.T) {
	g := exampleGraph(t)
	env := resched.Env{P: 16, Now: 0, Avail: resched.NewProfile(16, 0), Q: 16}
	results, err := resched.SweepPessimism(g, env, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[1].WasteFraction() <= results[0].WasteFraction() {
		t.Fatalf("sweep results: %+v", results)
	}
	if _, err := resched.EvaluatePessimism(g, env, 0.5); err == nil {
		t.Fatal("factor < 1 accepted")
	}
}
