package profile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"resched/internal/model"
)

// reserveSpec is one committed reservation a differential test replays
// onto several backends.
type reserveSpec struct {
	start, end model.Time
	procs      int
}

// randomReservations draws n reservations that are all individually
// feasible when applied in order to a fresh profile of the given
// capacity, mirroring how the book's ledger grows.
func randomReservations(rng *rand.Rand, n, capacity int, horizon model.Time) []reserveSpec {
	oracle := New(capacity, 0)
	specs := make([]reserveSpec, 0, n)
	for len(specs) < n {
		start := model.Time(rng.Int63n(int64(horizon)))
		end := start + 1 + model.Duration(rng.Int63n(int64(horizon)/8+1))
		if end > horizon {
			end = horizon
		}
		if end <= start {
			continue
		}
		procs := 1 + rng.Intn(capacity)
		if m := oracle.MinFree(start, end); m < procs {
			if m < 1 {
				continue
			}
			procs = 1 + rng.Intn(m)
		}
		if err := oracle.Reserve(start, end, procs); err != nil {
			t := fmt.Sprintf("oracle reserve: %v", err)
			panic(t)
		}
		specs = append(specs, reserveSpec{start, end, procs})
	}
	return specs
}

// TestPersistentMatchesFlatRandom replays seeded random
// Reserve/Unreserve/query sequences against a PersistentProfile and
// the flat oracle, requiring bit-identical outcomes after every step,
// and keeps every pre-step Clone alive to verify old roots never
// observe later mutations.
func TestPersistentMatchesFlatRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			capacity := 4 + rng.Intn(60)
			flat := New(capacity, 0)
			pers := NewTree(capacity, 0)

			type frozen struct {
				handle *PersistentProfile
				render string
			}
			var history []frozen

			var live []reserveSpec
			for step := 0; step < 300; step++ {
				history = append(history, frozen{pers.Clone(), pers.String()})

				start := model.Time(rng.Int63n(10_000))
				end := start + 1 + model.Duration(rng.Int63n(500))
				procs := 1 + rng.Intn(capacity+4)

				switch rng.Intn(4) {
				case 0, 1: // Reserve
					errF := flat.Reserve(start, end, procs)
					errP := pers.Reserve(start, end, procs)
					if (errF == nil) != (errP == nil) {
						t.Fatalf("step %d: Reserve flat err=%v, persistent err=%v", step, errF, errP)
					}
					if errF != nil && errF.Error() != errP.Error() {
						t.Fatalf("step %d: Reserve errors diverged\nflat: %v\npersistent: %v", step, errF, errP)
					}
					if errF == nil {
						live = append(live, reserveSpec{start, end, procs})
					}
				case 2: // Unreserve a live reservation (or a bogus window)
					spec := reserveSpec{start, end, procs}
					if len(live) > 0 && rng.Intn(4) != 0 {
						i := rng.Intn(len(live))
						spec = live[i]
						live = append(live[:i], live[i+1:]...)
					}
					errF := flat.Unreserve(spec.start, spec.end, spec.procs)
					errP := pers.Unreserve(spec.start, spec.end, spec.procs)
					if (errF == nil) != (errP == nil) {
						t.Fatalf("step %d: Unreserve flat err=%v, persistent err=%v", step, errF, errP)
					}
					if errF != nil {
						if errF.Error() != errP.Error() {
							t.Fatalf("step %d: Unreserve errors diverged\nflat: %v\npersistent: %v", step, errF, errP)
						}
						live = append(live, spec) // not actually released
					}
				case 3: // queries
					sF, errF := flat.EarliestFitChecked(procs, end-start, start)
					sP, errP := pers.EarliestFitChecked(procs, end-start, start)
					if (errF == nil) != (errP == nil) || sF != sP {
						t.Fatalf("step %d: EarliestFitChecked flat (%d,%v), persistent (%d,%v)", step, sF, errF, sP, errP)
					}
					vF, errF := flat.MinFreeChecked(start, end)
					vP, errP := pers.MinFreeChecked(start, end)
					if (errF == nil) != (errP == nil) || vF != vP {
						t.Fatalf("step %d: MinFreeChecked flat (%d,%v), persistent (%d,%v)", step, vF, errF, vP, errP)
					}
					aF, aErrF := flat.AvgFreeChecked(start, end)
					aP, aErrP := pers.AvgFreeChecked(start, end)
					if (aErrF == nil) != (aErrP == nil) || aF != aP {
						t.Fatalf("step %d: AvgFreeChecked flat (%v,%v), persistent (%v,%v)", step, aF, aErrF, aP, aErrP)
					}
					if fF := flat.FreeAt(start); fF != pers.FreeAt(start) {
						t.Fatalf("step %d: FreeAt flat %d, persistent %d", step, fF, pers.FreeAt(start))
					}
				}
				if err := pers.Check(); err != nil {
					t.Fatalf("step %d: persistent invariants: %v", step, err)
				}
				if pers.String() != flat.String() {
					t.Fatalf("step %d: divergence\n  persistent %s\n  flat       %s", step, pers, flat)
				}
				if pers.NumSegments() != flat.NumSegments() {
					t.Fatalf("step %d: NumSegments persistent %d, flat %d", step, pers.NumSegments(), flat.NumSegments())
				}
			}

			// Persistence: every frozen handle still renders exactly what
			// it rendered when taken, and still satisfies the invariants.
			for i, h := range history {
				if got := h.handle.String(); got != h.render {
					t.Fatalf("frozen handle %d mutated:\n  was %s\n  now %s", i, h.render, got)
				}
				if err := h.handle.Check(); err != nil {
					t.Fatalf("frozen handle %d invariants: %v", i, err)
				}
			}
		})
	}
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestPersistentCloneIsolation is the directed version of the frozen
// history check: mutations on either side of a Clone are invisible to
// the other.
func TestPersistentCloneIsolation(t *testing.T) {
	p := NewTree(16, 0)
	if err := p.Reserve(10, 20, 5); err != nil {
		t.Fatal(err)
	}
	snap := p.Clone()
	want := snap.String()

	for i := 0; i < 50; i++ {
		s := model.Time(i * 7)
		if err := p.Reserve(s, s+3, 1); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
	}
	if got := snap.String(); got != want {
		t.Fatalf("snapshot observed post-clone mutation:\n  was %s\n  now %s", want, got)
	}
	if err := snap.Unreserve(10, 20, 5); err != nil {
		t.Fatal(err)
	}
	if snap.NumSegments() != 1 {
		t.Fatalf("snapshot after unreserve: %s", snap)
	}
	if p.FreeAt(12) == 16 {
		t.Fatalf("live profile observed snapshot-side unreserve: %s", p)
	}
}

// TestPersistentFlatRoundTrip checks Flat/NewPersistentFromProfile and
// AppendSegmentsTo reproduce the step function exactly.
func TestPersistentFlatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := NewTree(24, 5)
	flatRef := New(24, 5)
	for _, spec := range randomReservations(rng, 40, 24, 4000) {
		s, e := spec.start+5, spec.end+5
		if err1, err2 := p.Reserve(s, e, spec.procs), flatRef.Reserve(s, e, spec.procs); (err1 == nil) != (err2 == nil) {
			t.Fatalf("reserve divergence: %v vs %v", err1, err2)
		}
	}
	if got := p.Flat().String(); got != flatRef.String() {
		t.Fatalf("Flat round trip:\n  got  %s\n  want %s", got, flatRef)
	}
	back := NewPersistentFromProfile(flatRef)
	if back.String() != flatRef.String() || back.Check() != nil {
		t.Fatalf("NewPersistentFromProfile:\n  got  %s\n  want %s", back, flatRef)
	}
	var dst Profile
	dst.Reset(p.Capacity(), p.Origin())
	p.AppendSegmentsTo(&dst)
	if dst.String() != flatRef.String() {
		t.Fatalf("AppendSegmentsTo:\n  got  %s\n  want %s", dst.String(), flatRef)
	}
	if err := dst.Check(); err != nil {
		t.Fatalf("AppendSegmentsTo invariants: %v", err)
	}
}

// TestCopyIntervalsPersistent pins the CopyIntervals fast path: a
// persistent source copies O(1) into an isolated working handle.
func TestCopyIntervalsPersistent(t *testing.T) {
	p := NewTree(8, 0)
	if err := p.Reserve(3, 9, 2); err != nil {
		t.Fatal(err)
	}
	w := CopyIntervals(p, nil)
	if _, ok := w.(*PersistentProfile); !ok {
		t.Fatalf("CopyIntervals backend changed: %T", w)
	}
	if err := w.Reserve(20, 30, 8); err != nil {
		t.Fatal(err)
	}
	if p.FreeAt(25) != 8 {
		t.Fatalf("working copy wrote through to source: %s", p)
	}
}

// twin is a persistent handle beside the flat profile it must equal.
// For a clone nobody has mutated, the flat side is the rendering the
// clone had at birth.
type twin struct {
	pers *PersistentProfile
	flat *Profile
}

// editHarness runs the persistent-vs-flat differential over a family
// of handles split off one another by Clone, so that mutations run on
// inside one edit (no Clone in between, owned nodes written in place)
// as well as across edits and on both sides of a split. twins[0] is
// the live handle; every clone ever taken stays in twins and is
// re-checked after every step, so a write that reaches a node some
// other handle still holds shows on the step that makes it.
type editHarness struct {
	t     testing.TB
	twins []twin
}

func newEditHarness(t testing.TB, capacity int) *editHarness {
	return &editHarness{t: t, twins: []twin{{NewTree(capacity, 0), New(capacity, 0)}}}
}

// clone splits a new handle off twins[i], ending i's edit.
func (h *editHarness) clone(i int) {
	src := h.twins[i]
	h.twins = append(h.twins, twin{src.pers.Clone(), src.flat.Clone()})
}

// sameSteps reports whether p and f hold the same step function,
// without rendering either.
func sameSteps(p *PersistentProfile, f *Profile) bool {
	i := 0
	whole := p.visit(p.root, 0, func(k model.Time, v int) bool {
		if i >= len(f.times) || f.times[i] != k || f.free[i] != v {
			return false
		}
		i++
		return true
	})
	return whole && i == len(f.times)
}

// step applies one operation (decodeTreeOp's selectors) to twins[i]
// and its flat side, requires the same outcome from both, and then
// requires every handle of the family to still equal its flat side.
func (h *editHarness) step(step, i int, op uint8, start, end model.Time, procs int) {
	t := h.t
	pers, flat := h.twins[i].pers, h.twins[i].flat
	switch op {
	case 0: // Reserve
		errF := flat.Reserve(start, end, procs)
		errP := pers.Reserve(start, end, procs)
		if (errF == nil) != (errP == nil) {
			t.Fatalf("step %d: Reserve flat err=%v, persistent err=%v", step, errF, errP)
		}
		if errF != nil && errF.Error() != errP.Error() {
			t.Fatalf("step %d: Reserve errors diverged\nflat: %v\npersistent: %v", step, errF, errP)
		}
	case 1: // Unreserve
		errF := flat.Unreserve(start, end, procs)
		errP := pers.Unreserve(start, end, procs)
		if (errF == nil) != (errP == nil) {
			t.Fatalf("step %d: Unreserve flat err=%v, persistent err=%v", step, errF, errP)
		}
		if errF != nil && errF.Error() != errP.Error() {
			t.Fatalf("step %d: Unreserve errors diverged\nflat: %v\npersistent: %v", step, errF, errP)
		}
	case 2: // EarliestFit (via Checked so bad args reject, not panic)
		sF, errF := flat.EarliestFitChecked(procs, end-start, start)
		sP, errP := pers.EarliestFitChecked(procs, end-start, start)
		if (errF == nil) != (errP == nil) || sF != sP {
			t.Fatalf("step %d: EarliestFitChecked flat (%d,%v), persistent (%d,%v)", step, sF, errF, sP, errP)
		}
	case 3: // LatestFit over a window derived from the operands
		sF, okF, errF := flat.LatestFitChecked(procs, model.Duration(procs), start, end)
		sP, okP, errP := pers.LatestFitChecked(procs, model.Duration(procs), start, end)
		if (errF == nil) != (errP == nil) || okF != okP || (okF && sF != sP) {
			t.Fatalf("step %d: LatestFitChecked flat (%d,%v,%v), persistent (%d,%v,%v)",
				step, sF, okF, errF, sP, okP, errP)
		}
	case 4: // MinFree
		vF, errF := flat.MinFreeChecked(start, end)
		vP, errP := pers.MinFreeChecked(start, end)
		if (errF == nil) != (errP == nil) || vF != vP {
			t.Fatalf("step %d: MinFreeChecked flat (%d,%v), persistent (%d,%v)", step, vF, errF, vP, errP)
		}
	case 5: // LatestFitMax over an Amdahl ladder of up to procs rungs
		reqs := amdahlLadder(nil, model.Duration(procs)*3, 0, min(max(procs, 1), flat.Capacity()))
		kW, sW, okW := latestFitMaxOracle(flat, reqs, start, end)
		kF, sF, okF := flat.LatestFitMax(reqs, start, end)
		kP, sP, okP := pers.LatestFitMax(reqs, start, end)
		if kF != kW || sF != sW || okF != okW || kP != kW || sP != sW || okP != okW {
			t.Fatalf("step %d: LatestFitMax(%v, %d, %d) flat (%d,%d,%v), persistent (%d,%d,%v), solo (%d,%d,%v)",
				step, reqs, start, end, kF, sF, okF, kP, sP, okP, kW, sW, okW)
		}
	}
	if err := pers.Check(); err != nil {
		t.Fatalf("step %d: persistent invariants: %v", step, err)
	}
	for j, tw := range h.twins {
		if sameSteps(tw.pers, tw.flat) {
			continue
		}
		if j == i {
			t.Fatalf("step %d: divergence\n  persistent %s\n  flat       %s", step, pers, flat)
		}
		t.Fatalf("step %d: op %d on handle %d wrote through a node handle %d shares:\n  was %s\n  now %s",
			step, op, i, j, tw.flat, tw.pers)
	}
}

// TestPersistentEditRuns is the seeded differential for edits that
// outlive one mutation — the regime TestPersistentMatchesFlatRandom,
// which clones before every step, never enters. The live handle is
// cloned only every run-th step it takes, so it carries run mutations
// (1 to 64) inside one edit; three steps in ten go to some clone
// instead, which puts both sides of a split under edit at once, and
// a quarter of those clone the clone first.
func TestPersistentEditRuns(t *testing.T) {
	for _, run := range []int{1, 2, 3, 7, 16, 33, 64} {
		run := run
		t.Run(fmt.Sprintf("run=%d", run), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(run) * 104729))
			capacity := 4 + rng.Intn(60)
			h := newEditHarness(t, capacity)
			sinceClone := run // clone before the first step too
			for step := 0; step < 320; step++ {
				target := 0
				if len(h.twins) > 1 && rng.Intn(10) < 3 {
					target = 1 + rng.Intn(len(h.twins)-1)
					if rng.Intn(4) == 0 {
						h.clone(target)
					}
				} else {
					if sinceClone == run {
						h.clone(0)
						sinceClone = 0
					}
					sinceClone++
				}
				op := uint8(rng.Intn(6) % 5) // Reserve twice as often as the rest
				start := model.Time(rng.Int63n(10_000))
				end := start + 1 + model.Duration(rng.Int63n(500))
				procs := 1 + rng.Intn(capacity+4)
				if op == 1 && rng.Intn(4) != 0 {
					// Mostly release something the target actually holds.
					if busy := h.twins[target].flat.Reservations(); len(busy) > 0 {
						r := busy[rng.Intn(len(busy))]
						start, end, procs = r.Start, r.End, 1+rng.Intn(r.Procs)
					}
				}
				h.step(step, target, op, start, end, procs)
			}
			for j, tw := range h.twins {
				if err := tw.pers.Check(); err != nil {
					t.Fatalf("handle %d invariants: %v", j, err)
				}
			}
		})
	}
}

// TestPersistentNodeLayout pins the two layout facts the backend's
// speed rests on: a pnode stays in the 64-byte size class (one cache
// line per descent step; the owner word was paid for by narrowing the
// counts to int32), and a capacity those counts cannot hold is refused
// at construction, not wrapped.
func TestPersistentNodeLayout(t *testing.T) {
	if sz := unsafe.Sizeof(pnode{}); sz > 64 {
		t.Fatalf("pnode is %d bytes, over the 64-byte size class", sz)
	}
	mustPanic(t, "tree of capacity freeCeil", func() { NewTree(freeCeil, 0) })
	mustPanic(t, "flat profile of capacity freeCeil", func() { NewPersistentFromProfile(New(freeCeil, 0)) })
	NewTree(freeCeil-1, 0) // the largest capacity the counts hold
}

// TestPersistentRejectedMutationWritesNothing: the edit token is drawn
// after the checks, so a refused Reserve or Unreserve leaves a sealed
// handle sealed and draws no token.
func TestPersistentRejectedMutationWritesNothing(t *testing.T) {
	p := NewTree(4, 0)
	before := editTokens.Load()
	if p.Reserve(0, 10, 5) == nil || p.Unreserve(0, 10, 1) == nil || p.Reserve(10, 10, 1) == nil {
		t.Fatal("malformed mutations accepted")
	}
	if p.edit.Load() != 0 || editTokens.Load() != before {
		t.Fatalf("rejected mutations opened edit %d (tokens %d -> %d)", p.edit.Load(), before, editTokens.Load())
	}
	if err := p.Reserve(0, 10, 1); err != nil {
		t.Fatal(err)
	}
	e := p.edit.Load()
	if e == 0 || e != editTokens.Load() {
		t.Fatalf("accepted mutation left edit %d, tokens at %d", e, editTokens.Load())
	}
	if err := p.Reserve(20, 30, 1); err != nil || p.edit.Load() != e {
		t.Fatalf("second mutation of the edit: err=%v, edit %d -> %d", err, e, p.edit.Load())
	}
	c := p.Clone()
	if p.edit.Load() != 0 || c.edit.Load() != 0 {
		t.Fatalf("Clone left edits open: receiver %d, clone %d", p.edit.Load(), c.edit.Load())
	}
}

// decodeTreeOp unpacks one fuzzed operation for the tree-vs-flat
// differential: an op selector plus raw (unclamped) time and processor
// operands, so rejection paths are fuzzed as hard as the commit paths.
func decodeTreeOp(b []byte) (op uint8, start model.Time, end model.Time, procs int) {
	op = b[0] % 6
	start = model.Time(binary.LittleEndian.Uint16(b[1:3]))
	end = start + model.Duration(binary.LittleEndian.Uint16(b[3:5]))
	procs = int(b[5])
	return
}

// editRunSeed encodes a fuzz input of steps mutations on the live
// handle with a Clone before every run-th: overlapping one-processor
// reserves, every fourth step releasing the window booked three steps
// earlier.
func editRunSeed(steps, run int) []byte {
	var b []byte
	for i := 0; i < steps; i++ {
		op, w := byte(0), i
		if i%4 == 3 {
			op, w = 1, i-3
		}
		if i%run != 0 {
			op += 6 // control bit 0: no Clone before this step
		}
		b = append(b, op, byte(7*w), byte(7*w>>8), 20, 0, 1)
	}
	return b
}

// editSplitSeed encodes a fuzz input that puts both sides of a split
// under edit: sixteen bookings inside one edit of the live handle, a
// Clone, then steps alternating between the live handle (control 1)
// and the clone (control 2|1) — whose first booking spans every node
// the two still share — a clone of the clone (control 2), a release on
// the first clone and a booking on the second (control 4|2|1).
func editSplitSeed() []byte {
	var b []byte
	for i := 0; i < 16; i++ {
		b = append(b, 6, byte(100*i), byte(100*i>>8), 50, 0, 1)
	}
	return append(b,
		0, 0x88, 0x13, 10, 0, 1, // Clone, then live books [5000,5010)
		18, 0, 0, 0xd0, 0x07, 1, // clone books [0,2000)
		6, 20, 0, 10, 0, 2, // live books [20,30)
		12, 0x2c, 0x01, 0x90, 0x01, 3, // Clone of the clone, which then books [300,700)
		19, 0, 0, 50, 0, 1, // clone releases [0,50)
		42, 0, 0, 0xd0, 0x07, 4, // second clone books [0,2000)
		6, 0, 0, 0xd0, 0x07, 2, // live books [0,2000)
	)
}

// FuzzPersistentVsFlat feeds random op sequences — Reserve,
// Unreserve, EarliestFit, LatestFit, MinFree, LatestFitMax
// (decodeTreeOp) — to a family of persistent handles (editHarness)
// and their flat twins, requiring bit-identical outcomes after every
// operation: the same accept/reject decision and error string on
// mutations, the same query answers (for LatestFitMax, also the solo
// oracle's), the same step function, and valid invariants. A handle
// cloned before an operation must render identically after it and
// after every later one — no write ever reaches a node another handle
// holds.
// The op byte's quotient by 6 is a control field. Bit 0 set skips the
// Clone before the step, so the fuzzer chooses how many mutations
// (0 to 64) an edit carries; bit 1 set applies the step, Clone
// included, to the clone the remaining bits pick, not the live handle,
// so clones are mutated and cloned in turn. Control 0 — every input of
// the corpus before the field existed — clones the live handle before
// every step.
func FuzzPersistentVsFlat(f *testing.F) {
	f.Add(uint8(7), []byte{0, 10, 0, 20, 0, 3, 2, 15, 0, 10, 0, 2})
	f.Add(uint8(0), []byte{0, 0, 0, 0, 0, 0})
	f.Add(uint8(31), []byte{0, 1, 0, 1, 0, 255, 3, 1, 0, 1, 0, 255, 4, 9, 0, 9, 0, 9})
	f.Add(uint8(7), editRunSeed(64, 64))
	f.Add(uint8(7), editRunSeed(64, 5))
	f.Add(uint8(15), editSplitSeed())
	f.Add(uint8(31), []byte{0, 0, 0, 100, 0, 20, 5, 40, 0, 200, 0, 12, 5, 0, 0, 90, 0, 0})
	f.Fuzz(func(t *testing.T, capRaw uint8, ops []byte) {
		capacity := int(capRaw%32) + 1
		if len(ops) > 64*6 {
			ops = ops[:64*6]
		}
		h := newEditHarness(t, capacity)
		for step := 0; len(ops) >= 6; step++ {
			op, start, end, procs := decodeTreeOp(ops)
			ctl := int(ops[0]) / 6
			ops = ops[6:]
			target := 0
			if ctl&2 != 0 && len(h.twins) > 1 {
				target = 1 + (ctl>>2)%(len(h.twins)-1)
			}
			if ctl&1 == 0 {
				h.clone(target)
			}
			h.step(step, target, op, start, end, procs)
		}
	})
}

// FuzzTreeProfileVsFlat is the fuzzed TestTreeMatchesFlatMutators: the
// same ops as FuzzPersistentVsFlat on one tree that is never cloned, so
// the whole sequence runs inside a single edit — every op byte is its
// selector, with no control field.
func FuzzTreeProfileVsFlat(f *testing.F) {
	f.Add(uint8(7), []byte{0, 10, 0, 20, 0, 3, 2, 15, 0, 10, 0, 2})
	f.Add(uint8(0), []byte{0, 0, 0, 0, 0, 0})
	f.Add(uint8(31), []byte{0, 1, 0, 1, 0, 255, 3, 1, 0, 1, 0, 255, 4, 9, 0, 9, 0, 9})
	f.Fuzz(func(t *testing.T, capRaw uint8, ops []byte) {
		capacity := int(capRaw%32) + 1
		if len(ops) > 64*6 {
			ops = ops[:64*6]
		}
		h := newEditHarness(t, capacity)
		for step := 0; len(ops) >= 6; step++ {
			op, start, end, procs := decodeTreeOp(ops)
			ops = ops[6:]
			h.step(step, 0, op, start, end, procs)
		}
	})
}

// sameErr requires errors to agree in presence and message.
func sameErr(t *testing.T, ctx string, flat, tree error) {
	t.Helper()
	if (flat == nil) != (tree == nil) {
		t.Fatalf("%s: flat err %v, tree err %v", ctx, flat, tree)
	}
	if flat != nil && flat.Error() != tree.Error() {
		t.Fatalf("%s: error strings diverged\nflat: %s\ntree: %s", ctx, flat, tree)
	}
}

// checkBoth verifies the invariants of the flat profile and the tree
// and that their rendered step functions agree.
func checkBoth(t *testing.T, ctx string, flat *Profile, tree *PersistentProfile) {
	t.Helper()
	if got, want := tree.String(), flat.String(); got != want {
		t.Fatalf("%s: profiles diverged\ntree: %s\nflat: %s", ctx, got, want)
	}
	if tree.NumSegments() != flat.NumSegments() {
		t.Fatalf("%s: tree has %d segments, flat %d", ctx, tree.NumSegments(), flat.NumSegments())
	}
	if err := flat.Check(); err != nil {
		t.Fatalf("%s: flat invariants: %v", ctx, err)
	}
	if err := tree.Check(); err != nil {
		t.Fatalf("%s: tree invariants: %v", ctx, err)
	}
}

// TestTreeMatchesFlatMutators applies identical random Reserve and
// Unreserve sequences to a flat profile and a tree that is never
// cloned — one edit for the whole run — and requires identical
// outcomes after every operation.
func TestTreeMatchesFlatMutators(t *testing.T) {
	const seeds, opsPerSeed = 12, 40
	cases := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flat, tree := New(96, 0), NewTree(96, 0)
		var booked []Reservation
		for op := 0; op < opsPerSeed; op++ {
			var errFlat, errTree error
			if len(booked) > 0 && rng.Intn(4) == 0 {
				if rng.Intn(3) > 0 {
					k := rng.Intn(len(booked))
					r := booked[k]
					booked = append(booked[:k], booked[k+1:]...)
					errFlat = flat.Unreserve(r.Start, r.End, r.Procs)
					errTree = tree.Unreserve(r.Start, r.End, r.Procs)
				} else {
					start, end := randomWindow(rng, flat)
					procs := rng.Intn(96) + 1
					errFlat = flat.Unreserve(start, end, procs)
					errTree = tree.Unreserve(start, end, procs)
				}
			} else {
				start, end := randomWindow(rng, flat)
				procs := rng.Intn(110) + 1 // sometimes > capacity
				errFlat = flat.Reserve(start, end, procs)
				errTree = tree.Reserve(start, end, procs)
				if errFlat == nil {
					booked = append(booked, Reservation{Start: start, End: end, Procs: procs})
				}
			}
			ctx := fmt.Sprintf("seed %d op %d", seed, op)
			sameErr(t, ctx, errFlat, errTree)
			checkBoth(t, ctx, flat, tree)
			cases++
		}
	}
	if cases < 200 {
		t.Fatalf("only %d mutation cases; the corpus should cover at least 200", cases)
	}
}

// TestTreeMatchesFlatQueries probes a randomly booked 128-processor
// flat profile and the tree built from it with every read query and
// requires identical answers, including the float64 AvgFree (both
// backends sum segment contributions in the same order, so even the
// floats are bit-identical).
func TestTreeMatchesFlatQueries(t *testing.T) {
	cases := 0
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flat := fuzzedProfile(rng, 128, 60)
		tree := NewPersistentFromProfile(flat)
		checkBoth(t, fmt.Sprintf("seed %d", seed), flat, tree)
		for trial := 0; trial < 30; trial++ {
			at := model.Time(rng.Int63n(int64(25*model.Day))) - model.Time(model.Day)
			if got, want := tree.FreeAt(at), flat.FreeAt(at); got != want {
				t.Fatalf("seed %d: FreeAt(%d) tree %d, flat %d", seed, at, got, want)
			}
			if got, want := tree.ReservedAt(at), flat.ReservedAt(at); got != want {
				t.Fatalf("seed %d: ReservedAt(%d) tree %d, flat %d", seed, at, got, want)
			}
			start := model.Time(rng.Int63n(int64(22 * model.Day)))
			end := start + model.Time(rng.Int63n(int64(3*model.Day))+1)
			if got, want := tree.MinFree(start, end), flat.MinFree(start, end); got != want {
				t.Fatalf("seed %d: MinFree(%d,%d) tree %d, flat %d", seed, start, end, got, want)
			}
			if got, want := tree.AvgFree(start, end), flat.AvgFree(start, end); got != want {
				t.Fatalf("seed %d: AvgFree(%d,%d) tree %v, flat %v", seed, start, end, got, want)
			}
			procs := rng.Intn(128) + 1
			dur := model.Duration(rng.Int63n(int64(4 * model.Hour)))
			notBefore := model.Time(rng.Int63n(int64(22 * model.Day)))
			if got, want := tree.EarliestFit(procs, dur, notBefore), flat.EarliestFit(procs, dur, notBefore); got != want {
				t.Fatalf("seed %d: EarliestFit(%d,%d,%d) tree %d, flat %d", seed, procs, dur, notBefore, got, want)
			}
			finishBy := notBefore + model.Time(rng.Int63n(int64(12*model.Day)))
			ldur := model.Duration(rng.Int63n(int64(16 * model.Day)))
			gs, gok := tree.LatestFit(procs, ldur, notBefore, finishBy)
			ws, wok := flat.LatestFit(procs, ldur, notBefore, finishBy)
			if gok != wok || (wok && gs != ws) {
				t.Fatalf("seed %d: LatestFit(%d,%d,%d,%d) tree (%d,%v), flat (%d,%v)",
					seed, procs, ldur, notBefore, finishBy, gs, gok, ws, wok)
			}
			cases += 6
		}
	}
	if cases < 200 {
		t.Fatalf("only %d query probes; the corpus should cover at least 200", cases)
	}
}

// TestTreeMatchesFlatBatch requires the tree's batch fits to be
// probe-for-probe identical to the flat batch sweeps.
func TestTreeMatchesFlatBatch(t *testing.T) {
	cases := 0
	var outF, outT []model.Time
	var okF, okT []bool
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flat := fuzzedProfile(rng, 128, 60)
		tree := NewPersistentFromProfile(flat)
		for trial := 0; trial < 6; trial++ {
			notBefore := model.Time(rng.Int63n(int64(10 * model.Day)))
			finishBy := notBefore + model.Time(rng.Int63n(int64(12*model.Day)))
			reqs := make([]FitRequest, rng.Intn(24)+1)
			for j := range reqs {
				reqs[j] = FitRequest{Procs: rng.Intn(128) + 1, Dur: model.Duration(rng.Int63n(int64(16 * model.Day)))}
			}
			outF = flat.EarliestFits(reqs, notBefore, outF)
			outT = tree.EarliestFits(reqs, notBefore, outT)
			for j := range reqs {
				if outF[j] != outT[j] {
					t.Fatalf("seed %d trial %d req %d: EarliestFits tree %d, flat %d", seed, trial, j, outT[j], outF[j])
				}
			}
			outF, okF = flat.LatestFits(reqs, notBefore, finishBy, outF, okF)
			outT, okT = tree.LatestFits(reqs, notBefore, finishBy, outT, okT)
			for j := range reqs {
				if okF[j] != okT[j] || (okF[j] && outF[j] != outT[j]) {
					t.Fatalf("seed %d trial %d req %d: LatestFits tree (%d,%v), flat (%d,%v)",
						seed, trial, j, outT[j], okT[j], outF[j], okF[j])
				}
			}
			cases += 2 * len(reqs)
		}
	}
	if cases < 200 {
		t.Fatalf("only %d batch probes; the corpus should cover at least 200", cases)
	}
}

// TestCheckedOriginEdgeCases is the regression table for the silent
// pre-origin clamp: the Checked variants on both backends must reject
// windows starting before the origin with ErrBeforeOrigin, accept the
// origin itself, and keep rejecting the malformed-argument cases.
func TestCheckedOriginEdgeCases(t *testing.T) {
	const origin = 1000
	flat := New(8, origin)
	if err := flat.Reserve(2000, 3000, 8); err != nil {
		t.Fatal(err)
	}
	backends := []struct {
		name string
		p    Intervals
	}{
		{"flat", flat},
		{"tree", NewPersistentFromProfile(flat)},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			// EarliestFit: pre-origin notBefore is rejected, not clamped.
			if _, err := b.p.EarliestFitChecked(4, 10, origin-1); !errors.Is(err, ErrBeforeOrigin) {
				t.Fatalf("EarliestFitChecked(notBefore=origin-1) err = %v, want ErrBeforeOrigin", err)
			}
			s, err := b.p.EarliestFitChecked(4, 10, origin)
			if err != nil || s != origin {
				t.Fatalf("EarliestFitChecked at origin = (%d, %v), want (%d, nil)", s, err, origin)
			}
			if _, err := b.p.EarliestFitChecked(0, 10, origin); err == nil || errors.Is(err, ErrBeforeOrigin) {
				t.Fatalf("EarliestFitChecked(procs=0) err = %v, want a non-origin validation error", err)
			}
			if _, err := b.p.EarliestFitChecked(4, -1, origin); err == nil {
				t.Fatal("EarliestFitChecked(dur=-1) should fail")
			}

			// LatestFit: same origin contract.
			if _, _, err := b.p.LatestFitChecked(4, 10, origin-1, 5000); !errors.Is(err, ErrBeforeOrigin) {
				t.Fatalf("LatestFitChecked(notBefore=origin-1) err = %v, want ErrBeforeOrigin", err)
			}
			if _, ok, err := b.p.LatestFitChecked(4, 10, origin, 5000); err != nil || !ok {
				t.Fatalf("LatestFitChecked at origin = (ok=%v, err=%v), want feasible", ok, err)
			}
			// An infeasible window is reported via ok, not an error.
			if _, ok, err := b.p.LatestFitChecked(8, 1, 2000, 3000); err != nil || ok {
				t.Fatalf("LatestFitChecked in a saturated window = (ok=%v, err=%v), want (false, nil)", ok, err)
			}

			// Window queries: pre-origin start rejected, origin accepted,
			// empty window still the malformed-arguments error.
			if _, err := b.p.MinFreeChecked(origin-1, origin+10); !errors.Is(err, ErrBeforeOrigin) {
				t.Fatalf("MinFreeChecked(start=origin-1) err = %v, want ErrBeforeOrigin", err)
			}
			if v, err := b.p.MinFreeChecked(origin, origin+10); err != nil || v != 8 {
				t.Fatalf("MinFreeChecked at origin = (%d, %v), want (8, nil)", v, err)
			}
			if _, err := b.p.MinFreeChecked(2000, 2000); err == nil || errors.Is(err, ErrBeforeOrigin) {
				t.Fatalf("MinFreeChecked(empty) err = %v, want a non-origin validation error", err)
			}
			if _, err := b.p.AvgFreeChecked(origin-1, origin+10); !errors.Is(err, ErrBeforeOrigin) {
				t.Fatalf("AvgFreeChecked(start=origin-1) err = %v, want ErrBeforeOrigin", err)
			}
			if v, err := b.p.AvgFreeChecked(2000, 3000); err != nil || v != 0 {
				t.Fatalf("AvgFreeChecked over the saturated hour = (%v, %v), want (0, nil)", v, err)
			}

			// Horizon edge cases: fits exist arbitrarily late, and the
			// mutation guards reject windows beyond the horizon sentinel.
			late := model.Time(model.Infinity - 10)
			if s, err := b.p.EarliestFitChecked(8, 5, late); err != nil || s != late {
				t.Fatalf("EarliestFitChecked near the horizon = (%d, %v), want (%d, nil)", s, err, late)
			}
			if err := b.p.CloneIntervals().Reserve(origin, model.Infinity, 1); err == nil {
				t.Fatal("Reserve ending at Infinity should fail")
			}
			if err := b.p.CloneIntervals().Unreserve(origin, model.Infinity, 1); err == nil {
				t.Fatal("Unreserve ending at Infinity should fail")
			}
		})
	}
}
