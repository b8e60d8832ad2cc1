package profile

// PersistentProfile is the O(log n), copy-on-write availability-profile
// backend: the flat Profile's step function indexed by a treap
// (randomized balanced BST) over the segment-start breakpoints. Each
// node carries its segment's free-processor count plus subtree min/max
// aggregates and a lazy range-add tag, so
//
//   - FreeAt / MinFree            are tree descents,          O(log n)
//   - Reserve / Unreserve         are two breakpoint inserts,
//                                 one lazy range-add, and up to
//                                 two coalescing deletes,     O(log n)
//   - EarliestFit / LatestFit     probe blocking segments via
//                                 aggregate-pruned descents,  O((b+1) log n)
//                                 where b is the number of blocking
//                                 segments the probe must skip,
//
// versus the flat backend's O(n) scans. AvgFree and the rendering
// queries traverse the queried window, O(k + log n) for k segments.
// Node priorities come from a splitmix64 stream, so tree shapes — and
// differential runs against the flat oracle — are reproducible.
//
// Nodes live on the heap and mutations path-copy. Every
// Reserve/Unreserve copies only those of the O(log n) nodes on its
// descent path (plus the O(log n) off-path children a lazy-tag
// pushdown touches) that the handle's current edit does not already
// own — nodes the edit created it writes in place — and publishes the
// new root; Clone ends the edit, so every node reachable from another
// handle is never written again.
//
// That makes Clone an O(1) struct copy sharing the root pointer, which
// is what the reservation book needs: taking a snapshot becomes
// grabbing one root pointer under RLock — O(1) instead of O(R) — and
// an old snapshot handle keeps answering queries against its frozen
// root while commits path-copy new roots beside it. Old roots are
// reclaimed by the Go GC once no snapshot references them; there is
// no free list and no manual reclamation.
//
// Read paths are mutation-free: query descents accumulate pending lazy
// adds of strict ancestors in an acc parameter and never push tags
// down, so a root shared by any number of snapshot handles can be
// probed concurrently without copying.
//
// A PersistentProfile is semantically bit-identical to the flat
// backend — same results, same error messages, same panics — enforced
// by the differential tests and FuzzPersistentVsFlat.

import (
	"fmt"
	"math"
	"sync/atomic"

	"resched/internal/model"
)

const (
	freeCeil = int(1) << 30 // above any processor count: range-min identity
	keyFloor = model.Time(math.MinInt64 / 2)
	keyCeil  = model.Time(math.MaxInt64 / 2)
)

// splitmix64 is the deterministic priority stream for treap nodes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pnode is one treap node: the segment starting at key holds val free
// processors until the next breakpoint. mn/mx aggregate val over the
// node's subtree; add is the pending lazy increment for both child
// subtrees (the node's own val/mn/mx are always current). The counts
// are int32 (constructors bound the capacity) so that owner fits and
// the node stays in the 64-byte size class — one cache line per step
// of a descent.
//
// COW invariant: owner is the token of the edit that created the node
// (0: born sealed), and only a handle whose current edit is owner may
// write it; every other mutation writes a stamped copy (own/applied).
// Tokens are never reissued and Clone retires the receiver's, so a
// pnode reachable from a second handle is never written again.
type pnode struct {
	l, r  *pnode
	prio  uint64
	owner uint64
	key   model.Time
	val   int32
	mn    int32
	mx    int32
	add   int32
}

// editTokens issues edit tokens: 64 bits, never 0, never reused — a
// wrapped token would let a later edit write nodes a live snapshot
// still holds.
var editTokens atomic.Uint64

// PersistentProfile is a step function of free processors from origin
// onward answering queries in O(log n) with O(1) snapshots. The zero
// value is not usable; construct with NewTree or
// NewPersistentFromProfile.
type PersistentProfile struct {
	capacity int
	origin   model.Time
	root     *pnode
	n        int // live segment count
	seed     uint64
	// edit is the token of the handle's open edit, 0 when sealed. It is
	// atomic because Clone retires it, and the book clones its tree
	// under RLock, possibly from several goroutines at once.
	edit atomic.Uint64
}

// NewTree returns an empty persistent profile: capacity processors
// free from origin onward.
func NewTree(capacity int, origin model.Time) *PersistentProfile {
	if capacity < 1 {
		panic(fmt.Sprintf("profile: capacity %d < 1", capacity))
	}
	checkNodeCapacity(capacity)
	t := &PersistentProfile{capacity: capacity, origin: origin}
	t.root = t.newNode(origin, capacity)
	t.n = 1
	return t
}

// NewPersistentFromProfile returns a persistent copy of the flat
// profile p, built in O(n). p is not retained.
func NewPersistentFromProfile(p *Profile) *PersistentProfile {
	checkNodeCapacity(p.capacity)
	t := &PersistentProfile{capacity: p.capacity, origin: p.times[0]}
	t.buildSorted(p.times, p.free)
	return t
}

// checkNodeCapacity panics on a capacity pnode's int32 counts (and the
// freeCeil range-min identity) cannot hold.
func checkNodeCapacity(capacity int) {
	if capacity >= freeCeil {
		panic(fmt.Sprintf("profile: capacity %d >= %d", capacity, freeCeil))
	}
}

// buildSorted builds a proper random treap from the sorted step
// function in O(n): push each new rightmost node onto the right spine,
// rotating by priority, then recompute aggregates bottom-up. All nodes
// are fresh and unpublished here, so in-place writes are safe; t is
// sealed, so they are born sealed.
func (t *PersistentProfile) buildSorted(times []model.Time, free []int) {
	spine := make([]*pnode, 0, 48)
	for i := range times {
		nd := t.newNode(times[i], free[i])
		var last *pnode
		for len(spine) > 0 && spine[len(spine)-1].prio < nd.prio {
			last = spine[len(spine)-1]
			spine = spine[:len(spine)-1]
		}
		nd.l = last
		if len(spine) > 0 {
			spine[len(spine)-1].r = nd
		} else {
			t.root = nd
		}
		spine = append(spine, nd)
	}
	t.n = len(times)
	pullAllFresh(t.root)
}

// pullAllFresh recomputes aggregates bottom-up over a tree of fresh,
// unshared nodes (buildSorted only).
func pullAllFresh(n *pnode) {
	if n == nil {
		return
	}
	pullAllFresh(n.l)
	pullAllFresh(n.r)
	ppull(n)
}

// Clone returns an independent handle in O(1). The root is shared, so
// the receiver's edit ends here — the one word Clone writes — and the
// clone starts sealed: whichever side mutates next draws a fresh token
// and path-copies what the other can still reach.
func (t *PersistentProfile) Clone() *PersistentProfile {
	t.seal()
	return &PersistentProfile{capacity: t.capacity, origin: t.origin, root: t.root, n: t.n, seed: t.seed}
}

// seal retires the handle's edit token: the nodes it stamped become
// immutable. Concurrent sealers (snapshots under the book's RLock)
// store the same 0; the test skips the store, and the cache-line
// bounce, when nothing is open.
func (t *PersistentProfile) seal() {
	if t.edit.Load() != 0 {
		t.edit.Store(0)
	}
}

// beginEdit opens an edit unless one is open. Mutations call it after
// their checks pass, so a rejected operation writes nothing at all.
func (t *PersistentProfile) beginEdit() {
	if t.edit.Load() == 0 {
		t.edit.Store(editTokens.Add(1))
	}
}

// CloneIntervals implements Intervals.
func (t *PersistentProfile) CloneIntervals() Intervals { return t.Clone() }

// Flat returns an independent flat-backend copy of the step function.
func (t *PersistentProfile) Flat() *Profile {
	p := &Profile{
		capacity: t.capacity,
		times:    make([]model.Time, 0, t.n),
		free:     make([]int, 0, t.n),
	}
	t.visit(t.root, 0, func(k model.Time, v int) bool {
		p.times = append(p.times, k)
		p.free = append(p.free, v)
		return true
	})
	return p
}

// AppendSegmentsTo appends t's step function onto dst via the
// coalescing builder — how the reservation book materializes a
// small-R snapshot into a pooled flat profile. dst must have been
// Reset (or previously appended) up to t's origin.
func (t *PersistentProfile) AppendSegmentsTo(dst *Profile) {
	t.visit(t.root, 0, func(k model.Time, v int) bool {
		dst.AppendFree(k, v)
		return true
	})
}

// Capacity returns the cluster size.
func (t *PersistentProfile) Capacity() int { return t.capacity }

// Origin returns the start of the profile's horizon.
func (t *PersistentProfile) Origin() model.Time { return t.origin }

// NumSegments returns the number of segments of the step function.
func (t *PersistentProfile) NumSegments() int { return t.n }

// ---- copy-on-write node plumbing ----
//
// The only functions that construct or write pnodes. Every mutation
// path goes own-first: own/applied return a node the open edit owns,
// and all subsequent writes (push, ppull, rotations, child-pointer
// updates) target nodes returned by them or by newNode within the same
// edit.

// newNode draws the next priority from the splitmix64 stream and
// stamps the node with the open edit (none: the node is born sealed).
func (t *PersistentProfile) newNode(key model.Time, val int) *pnode {
	t.seed++
	v := int32(val)
	return &pnode{key: key, val: v, mn: v, mx: v, prio: splitmix64(t.seed), owner: t.edit.Load()}
}

// own returns a node with n's contents that the open edit may write: n
// itself when this edit created it, a stamped copy otherwise. An edit
// must be open — token 0 would claim every sealed node.
func (t *PersistentProfile) own(n *pnode) *pnode {
	e := t.edit.Load()
	if n.owner == e {
		return n
	}
	c := *n
	c.owner = e
	return &c
}

// applied returns an owned n with d added to every segment in its
// subtree (lazily for children). nil stays nil.
func (t *PersistentProfile) applied(n *pnode, d int32) *pnode {
	if n == nil {
		return nil
	}
	n = t.own(n)
	n.val += d
	n.mn += d
	n.mx += d
	n.add += d
	return n
}

// push pushes n's pending lazy tag down onto owned children. n must
// itself be owned.
func (t *PersistentProfile) push(n *pnode) {
	if n.add != 0 {
		n.l = t.applied(n.l, n.add)
		n.r = t.applied(n.r, n.add)
		n.add = 0
	}
}

// ppull recomputes n's aggregates from its (up-to-date) children; n's
// own lazy tag must be clear and n must be owned.
func ppull(n *pnode) {
	mn, mx := n.val, n.val
	if l := n.l; l != nil {
		if l.mn < mn {
			mn = l.mn
		}
		if l.mx > mx {
			mx = l.mx
		}
	}
	if r := n.r; r != nil {
		if r.mn < mn {
			mn = r.mn
		}
		if r.mx > mx {
			mx = r.mx
		}
	}
	n.mn, n.mx = mn, mx
}

// protRight rotates the owned node n right; n and n.l must both be
// owned (the subtrees hanging off them may be shared — they are only
// re-linked, never written).
func protRight(n *pnode) *pnode {
	l := n.l
	n.l = l.r
	l.r = n
	ppull(n)
	ppull(l)
	return l
}

// protLeft rotates the owned node n left; n and n.r must both be owned.
func protLeft(n *pnode) *pnode {
	r := n.r
	n.r = r.l
	r.l = n
	ppull(n)
	ppull(r)
	return r
}

// insert adds a new breakpoint, owning the descent; the key must not
// be present. Returns the owned subtree root.
func (t *PersistentProfile) insert(n *pnode, key model.Time, val int) *pnode {
	if n == nil {
		return t.newNode(key, val)
	}
	n = t.own(n)
	t.push(n)
	if key < n.key {
		l := t.insert(n.l, key, val)
		n.l = l
		if l.prio > n.prio {
			n = protRight(n)
			ppull(n)
			return n
		}
	} else {
		r := t.insert(n.r, key, val)
		n.r = r
		if r.prio > n.prio {
			n = protLeft(n)
			ppull(n)
			return n
		}
	}
	ppull(n)
	return n
}

// erase removes the breakpoint at key, owning the descent; the key
// must be present. The removed node and any copied spine become
// garbage once no snapshot references the old root.
func (t *PersistentProfile) erase(n *pnode, key model.Time) *pnode {
	if n == nil {
		return nil
	}
	n = t.own(n)
	t.push(n)
	switch {
	case key < n.key:
		n.l = t.erase(n.l, key)
	case key > n.key:
		n.r = t.erase(n.r, key)
	default:
		return t.merge(n.l, n.r)
	}
	ppull(n)
	return n
}

// merge joins two treaps where every key of a precedes every key of
// b, owning the merge spine. Both inputs may be shared; the returned
// root is owned wherever it differs from them.
func (t *PersistentProfile) merge(a, b *pnode) *pnode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio > b.prio {
		a = t.own(a)
		t.push(a)
		a.r = t.merge(a.r, b)
		ppull(a)
		return a
	}
	b = t.own(b)
	t.push(b)
	b.l = t.merge(a, b.l)
	ppull(b)
	return b
}

// rangeAdd adds d to every segment with key in [lo, hi), owning the
// touched frontier. (lb, ub) are the inclusive key bounds of n's
// subtree implied by the descent path; a fully covered subtree absorbs
// the add lazily on its one applied root, an untouched subtree is
// shared unchanged.
func (t *PersistentProfile) rangeAdd(n *pnode, lb, ub, lo, hi model.Time, d int32) *pnode {
	if n == nil || ub < lo || lb >= hi {
		return n
	}
	if lo <= lb && ub < hi {
		return t.applied(n, d)
	}
	n = t.own(n)
	t.push(n)
	if lo <= n.key && n.key < hi {
		n.val += d
	}
	n.l = t.rangeAdd(n.l, lb, n.key-1, lo, hi, d)
	n.r = t.rangeAdd(n.r, n.key+1, ub, lo, hi, d)
	ppull(n)
	return n
}

// ---- read-only descents ----
//
// Queries never push lazy tags down: they accumulate the pending adds
// of strict ancestors in acc, so a root shared across snapshots is
// probed without a single write.

// floor returns the key and value of the segment containing x — the
// greatest breakpoint <= x. ok is false when x precedes the origin.
func (t *PersistentProfile) floor(x model.Time) (key model.Time, val int, ok bool) {
	n, acc := t.root, int32(0)
	for n != nil {
		if x < n.key {
			acc += n.add
			n = n.l
		} else {
			key, val, ok = n.key, int(n.val+acc), true
			acc += n.add
			n = n.r
		}
	}
	return key, val, ok
}

// succKey returns the smallest breakpoint > x, or model.Infinity — the
// exclusive end of the segment whose key is the floor of x.
func (t *PersistentProfile) succKey(x model.Time) model.Time {
	n := t.root
	s := model.Infinity
	for n != nil {
		if n.key > x {
			s = n.key
			n = n.l
		} else {
			n = n.r
		}
	}
	return s
}

// rangeMin returns the minimum free count over segments with key in
// [lo, hi), or freeCeil when none exist.
func (t *PersistentProfile) rangeMin(n *pnode, acc int32, lb, ub, lo, hi model.Time) int {
	if n == nil || ub < lo || lb >= hi {
		return freeCeil
	}
	if lo <= lb && ub < hi {
		return int(n.mn + acc)
	}
	m := freeCeil
	if lo <= n.key && n.key < hi {
		m = int(n.val + acc)
	}
	acc += n.add
	if v := t.rangeMin(n.l, acc, lb, n.key-1, lo, hi); v < m {
		m = v
	}
	if v := t.rangeMin(n.r, acc, n.key+1, ub, lo, hi); v < m {
		m = v
	}
	return m
}

// firstBelow returns the leftmost segment with key >= from and fewer
// than procs free, pruning subtrees whose min already satisfies procs.
func (t *PersistentProfile) firstBelow(n *pnode, acc int32, procs int, from model.Time) (model.Time, bool) {
	if n == nil {
		return 0, false
	}
	if int(n.mn+acc) >= procs {
		return 0, false
	}
	if n.key < from {
		return t.firstBelow(n.r, acc+n.add, procs, from)
	}
	if k, ok := t.firstBelow(n.l, acc+n.add, procs, from); ok {
		return k, ok
	}
	if int(n.val+acc) < procs {
		return n.key, true
	}
	return t.firstBelow(n.r, acc+n.add, procs, from)
}

// firstAbove returns the leftmost segment with key in [from, to) and
// more than limit free; the value returned is that segment's free
// count.
func (t *PersistentProfile) firstAbove(n *pnode, acc int32, limit int, from, to model.Time) (int, bool) {
	if n == nil {
		return 0, false
	}
	if int(n.mx+acc) <= limit {
		return 0, false
	}
	if n.key >= to {
		return t.firstAbove(n.l, acc+n.add, limit, from, to)
	}
	if n.key < from {
		return t.firstAbove(n.r, acc+n.add, limit, from, to)
	}
	if v, ok := t.firstAbove(n.l, acc+n.add, limit, from, to); ok {
		return v, ok
	}
	if v := int(n.val + acc); v > limit {
		return v, true
	}
	return t.firstAbove(n.r, acc+n.add, limit, from, to)
}

// lastFeasibleUpTo returns the rightmost segment with key <= upto and
// at least procs free — the top of the latest feasible run.
func (t *PersistentProfile) lastFeasibleUpTo(n *pnode, acc int32, procs int, upto model.Time) (model.Time, bool) {
	if n == nil {
		return 0, false
	}
	if int(n.mx+acc) < procs {
		return 0, false
	}
	if n.key > upto {
		return t.lastFeasibleUpTo(n.l, acc+n.add, procs, upto)
	}
	if k, ok := t.lastFeasibleUpTo(n.r, acc+n.add, procs, upto); ok {
		return k, ok
	}
	if int(n.val+acc) >= procs {
		return n.key, true
	}
	return t.lastFeasibleUpTo(n.l, acc+n.add, procs, upto)
}

// lastBlockingUpTo returns the rightmost segment with key <= upto and
// fewer than procs free — the blocking segment bounding a feasible run
// from below.
func (t *PersistentProfile) lastBlockingUpTo(n *pnode, acc int32, procs int, upto model.Time) (model.Time, bool) {
	if n == nil {
		return 0, false
	}
	if int(n.mn+acc) >= procs {
		return 0, false
	}
	if n.key > upto {
		return t.lastBlockingUpTo(n.l, acc+n.add, procs, upto)
	}
	if k, ok := t.lastBlockingUpTo(n.r, acc+n.add, procs, upto); ok {
		return k, ok
	}
	if int(n.val+acc) < procs {
		return n.key, true
	}
	return t.lastBlockingUpTo(n.l, acc+n.add, procs, upto)
}

// visit walks the tree in key order calling fn(key, free); fn returns
// false to stop early.
func (t *PersistentProfile) visit(n *pnode, acc int32, fn func(model.Time, int) bool) bool {
	if n == nil {
		return true
	}
	if !t.visit(n.l, acc+n.add, fn) {
		return false
	}
	if !fn(n.key, int(n.val+acc)) {
		return false
	}
	return t.visit(n.r, acc+n.add, fn)
}

// visitFrom is visit restricted to keys >= from.
func (t *PersistentProfile) visitFrom(n *pnode, acc int32, from model.Time, fn func(model.Time, int) bool) bool {
	if n == nil {
		return true
	}
	if n.key < from {
		return t.visitFrom(n.r, acc+n.add, from, fn)
	}
	if !t.visitFrom(n.l, acc+n.add, from, fn) {
		return false
	}
	if !fn(n.key, int(n.val+acc)) {
		return false
	}
	return t.visit(n.r, acc+n.add, fn)
}

// ---- queries (semantics identical to the flat backend) ----

// FreeAt returns the number of free processors at time t. Times before
// the origin report the origin's availability.
func (t *PersistentProfile) FreeAt(at model.Time) int {
	if at < t.origin {
		at = t.origin
	}
	_, v, _ := t.floor(at)
	return v
}

// ReservedAt returns capacity - FreeAt(t).
func (t *PersistentProfile) ReservedAt(at model.Time) int { return t.capacity - t.FreeAt(at) }

// MinFree returns the minimum number of free processors over
// [start, end). It panics if end <= start.
func (t *PersistentProfile) MinFree(start, end model.Time) int {
	if end <= start {
		panic(fmt.Sprintf("profile: MinFree over empty interval [%d,%d)", start, end))
	}
	if start < t.origin {
		start = t.origin
	}
	fk, _, _ := t.floor(start)
	m := t.rangeMin(t.root, 0, keyFloor, keyCeil, fk, end)
	if m > t.capacity {
		m = t.capacity
	}
	return m
}

// AvgFree returns the time-weighted average number of free processors
// over [start, end).
func (t *PersistentProfile) AvgFree(start, end model.Time) float64 {
	if end <= start {
		panic(fmt.Sprintf("profile: AvgFree over empty interval [%d,%d)", start, end))
	}
	if start < t.origin {
		start = t.origin
	}
	if end <= start {
		return float64(t.capacity)
	}
	fk, _, _ := t.floor(start)
	var acc float64
	var prevKey model.Time
	var prevVal int
	started := false
	emit := func(segStart, segEnd model.Time, free int) {
		lo, hi := segStart, segEnd
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			acc += float64(free) * float64(hi-lo)
		}
	}
	t.visitFrom(t.root, 0, fk, func(k model.Time, v int) bool {
		if started {
			emit(prevKey, k, prevVal)
		}
		prevKey, prevVal = k, v
		started = true
		return k < end
	})
	if started && prevKey < end {
		emit(prevKey, model.Infinity, prevVal)
	}
	return acc / float64(end-start)
}

// EarliestFit returns the earliest start time s >= notBefore such that
// procs processors are free during [s, s+dur); see the flat backend
// for the full contract.
func (t *PersistentProfile) EarliestFit(procs int, dur model.Duration, notBefore model.Time) model.Time {
	if procs < 1 || procs > t.capacity {
		panic(fmt.Sprintf("profile: EarliestFit for %d processors on a %d-processor cluster", procs, t.capacity))
	}
	if dur < 0 {
		panic(fmt.Sprintf("profile: negative duration %d", dur))
	}
	s := notBefore
	if s < t.origin {
		s = t.origin
	}
	if dur == 0 {
		return s
	}
	for {
		fk, _, _ := t.floor(s)
		bk, ok := t.firstBelow(t.root, 0, procs, fk)
		if !ok || bk >= s+dur {
			// No blocking segment intersects [s, s+dur).
			return s
		}
		e := t.succKey(bk)
		if e == model.Infinity {
			// Matches the flat backend's defensive check: the horizon
			// segment is fully free in any valid profile.
			panic("profile: horizon segment not fully free")
		}
		s = e
	}
}

// LatestFit returns the latest start time s with s >= notBefore,
// s+dur <= finishBy, and procs processors free during [s, s+dur); see
// the flat backend for the full contract.
func (t *PersistentProfile) LatestFit(procs int, dur model.Duration, notBefore, finishBy model.Time) (model.Time, bool) {
	if procs < 1 || procs > t.capacity {
		panic(fmt.Sprintf("profile: LatestFit for %d processors on a %d-processor cluster", procs, t.capacity))
	}
	if dur < 0 {
		panic(fmt.Sprintf("profile: negative duration %d", dur))
	}
	lo := notBefore
	if lo < t.origin {
		lo = t.origin
	}
	if finishBy-dur < lo {
		return 0, false
	}
	if dur == 0 {
		return finishBy, true
	}
	cur, _, _ := t.floor(finishBy)
	for {
		fk, ok := t.lastFeasibleUpTo(t.root, 0, procs, cur)
		if !ok {
			return 0, false
		}
		runEnd := t.succKey(fk)
		if runEnd > finishBy {
			runEnd = finishBy
		}
		bk, bok := t.lastBlockingUpTo(t.root, 0, procs, fk)
		runStart := t.origin
		if bok {
			runStart = t.succKey(bk)
		}
		if runStart < lo {
			runStart = lo
		}
		if runEnd-dur >= runStart {
			return runEnd - dur, true
		}
		if !bok {
			return 0, false
		}
		cur = bk
	}
}

// EarliestFits answers EarliestFit for every request; each probe is an
// independent descent, results probe-for-probe identical to the flat
// backend's shared sweep.
func (t *PersistentProfile) EarliestFits(reqs []FitRequest, notBefore model.Time, out []model.Time) []model.Time {
	if cap(out) < len(reqs) {
		out = make([]model.Time, len(reqs))
	}
	out = out[:len(reqs)]
	for j, r := range reqs {
		if r.Procs < 1 || r.Procs > t.capacity {
			panic(fmt.Sprintf("profile: EarliestFits for %d processors on a %d-processor cluster", r.Procs, t.capacity))
		}
		out[j] = t.EarliestFit(r.Procs, r.Dur, notBefore)
	}
	return out
}

// LatestFits answers LatestFit for every request; see EarliestFits.
func (t *PersistentProfile) LatestFits(reqs []FitRequest, notBefore, finishBy model.Time, out []model.Time, ok []bool) ([]model.Time, []bool) {
	if cap(out) < len(reqs) {
		out = make([]model.Time, len(reqs))
	}
	out = out[:len(reqs)]
	if cap(ok) < len(reqs) {
		ok = make([]bool, len(reqs))
	}
	ok = ok[:len(reqs)]
	for j, r := range reqs {
		if r.Procs < 1 || r.Procs > t.capacity {
			panic(fmt.Sprintf("profile: LatestFits for %d processors on a %d-processor cluster", r.Procs, t.capacity))
		}
		out[j], ok[j] = t.LatestFit(r.Procs, r.Dur, notBefore, finishBy)
	}
	return out, ok
}

// LatestFitMax returns the ladder request with the latest feasible
// start, ties to the lowest index; see the flat backend for the
// contract. Each rung is one solo descent whose window floor is raised
// past the best start so far: a floor at or below a request's latest
// start leaves that start unchanged, and a floor above it means the
// request cannot win, so only a strictly later start replaces the best.
func (t *PersistentProfile) LatestFitMax(reqs []FitRequest, notBefore, finishBy model.Time) (int, model.Time, bool) {
	checkLadder(reqs, t.capacity)
	k, best := -1, model.Time(0)
	for j, r := range reqs {
		if s, ok := t.LatestFit(r.Procs, r.Dur, notBefore, finishBy); ok {
			k, best, notBefore = j, s, s+1
		}
	}
	return k, best, k >= 0
}

// ---- mutations ----

// ensureBreak inserts a breakpoint at time tm (>= origin), reusing an
// existing one.
func (t *PersistentProfile) ensureBreak(tm model.Time) {
	fk, fv, _ := t.floor(tm)
	if fk == tm {
		return
	}
	t.root = t.insert(t.root, tm, fv)
	t.n++
}

// coalesceBoundary removes the breakpoint at tm when its segment has
// the same availability as its predecessor.
func (t *PersistentProfile) coalesceBoundary(tm model.Time) {
	if tm <= t.origin {
		return
	}
	fk, fv, ok := t.floor(tm)
	if !ok || fk != tm {
		return
	}
	_, pv, pok := t.floor(tm - 1)
	if pok && pv == fv {
		t.root = t.erase(t.root, tm)
		t.n--
	}
}

// reserveChecks mirrors the flat backend's validation, same messages.
func (t *PersistentProfile) reserveChecks(start, end model.Time, procs int) error {
	if procs < 1 || procs > t.capacity {
		return fmt.Errorf("cannot reserve %d processors on a %d-processor cluster", procs, t.capacity)
	}
	if start < t.origin {
		return fmt.Errorf("reservation start %d before profile origin %d", start, t.origin)
	}
	if end <= start {
		return fmt.Errorf("reservation interval [%d,%d) is empty", start, end)
	}
	if end >= model.Infinity {
		return fmt.Errorf("reservation end %d beyond the scheduling horizon", end)
	}
	if m := t.MinFree(start, end); m < procs {
		return fmt.Errorf("only %d of %d requested processors free during [%d,%d)", m, procs, start, end)
	}
	return nil
}

// unreserveChecks mirrors the flat backend's validation, same messages.
func (t *PersistentProfile) unreserveChecks(start, end model.Time, procs int) error {
	if procs < 1 || procs > t.capacity {
		return fmt.Errorf("cannot release %d processors on a %d-processor cluster", procs, t.capacity)
	}
	if start < t.origin {
		return fmt.Errorf("release start %d before profile origin %d", start, t.origin)
	}
	if end <= start {
		return fmt.Errorf("release interval [%d,%d) is empty", start, end)
	}
	if end >= model.Infinity {
		return fmt.Errorf("release end %d beyond the scheduling horizon", end)
	}
	fk, _, _ := t.floor(start)
	if v, over := t.firstAbove(t.root, 0, t.capacity-procs, fk, end); over {
		return fmt.Errorf("only %d of %d released processors reserved during [%d,%d)", t.capacity-v, procs, start, end)
	}
	return nil
}

// Reserve commits a reservation of procs processors during
// [start, end), writing the O(log n) touched nodes — in place where the
// handle's open edit owns them, as stamped copies otherwise — and
// swinging t.root to the result; same contract and failure modes as
// the flat backend. Other handles are unaffected: no node they can
// reach is owned by this edit.
func (t *PersistentProfile) Reserve(start, end model.Time, procs int) error {
	if err := t.reserveChecks(start, end, procs); err != nil {
		return err
	}
	t.addRange(start, end, int32(-procs))
	return nil
}

// Unreserve returns procs processors to the profile during
// [start, end); same contract and failure modes as the flat backend,
// copy-on-write like Reserve.
func (t *PersistentProfile) Unreserve(start, end model.Time, procs int) error {
	if err := t.unreserveChecks(start, end, procs); err != nil {
		return err
	}
	t.addRange(start, end, int32(procs))
	return nil
}

// addRange is the mutation Reserve and Unreserve share once their
// checks have passed: open the edit, break at both ends, add, and
// coalesce the ends away again where they no longer separate values.
func (t *PersistentProfile) addRange(start, end model.Time, d int32) {
	t.beginEdit()
	t.ensureBreak(start)
	t.ensureBreak(end)
	t.root = t.rangeAdd(t.root, keyFloor, keyCeil, start, end, d)
	t.coalesceBoundary(end)
	t.coalesceBoundary(start)
}

// ---- rendering and invariants ----

// Segments returns the step function as a list of segments.
func (t *PersistentProfile) Segments() []Segment {
	out := make([]Segment, 0, t.n)
	t.visit(t.root, 0, func(k model.Time, v int) bool {
		out = append(out, Segment{Start: k, Free: v})
		return true
	})
	return out
}

// Check verifies the representation invariants, reporting the same
// violations (same messages) as the flat backend plus tree-specific
// bookkeeping.
func (t *PersistentProfile) Check() error {
	if t.n < 1 {
		return fmt.Errorf("profile: %d times, %d free values", t.n, t.n)
	}
	var err error
	i := 0
	var prevKey model.Time
	var prevVal int
	last := 0
	t.visit(t.root, 0, func(k model.Time, v int) bool {
		if i == 0 && k != t.origin {
			err = fmt.Errorf("profile: first breakpoint %d is not the origin %d", k, t.origin)
			return false
		}
		if i > 0 && k <= prevKey {
			err = fmt.Errorf("profile: breakpoints not increasing at %d", i)
			return false
		}
		if i > 0 && v == prevVal {
			err = fmt.Errorf("profile: uncoalesced segments at %d", i)
			return false
		}
		if v < 0 || v > t.capacity {
			err = fmt.Errorf("profile: free %d outside [0,%d]", v, t.capacity)
			return false
		}
		prevKey, prevVal = k, v
		last = v
		i++
		return true
	})
	if err != nil {
		return err
	}
	if i != t.n {
		return fmt.Errorf("profile: tree holds %d segments, count says %d", i, t.n)
	}
	if last != t.capacity {
		return fmt.Errorf("profile: final segment not fully free")
	}
	return t.checkHeap(t.root)
}

// checkHeap verifies the treap's priority heap order.
func (t *PersistentProfile) checkHeap(n *pnode) error {
	if n == nil {
		return nil
	}
	if l := n.l; l != nil && l.prio > n.prio {
		return fmt.Errorf("profile: treap heap order violated at key %d", l.key)
	}
	if r := n.r; r != nil && r.prio > n.prio {
		return fmt.Errorf("profile: treap heap order violated at key %d", r.key)
	}
	if err := t.checkHeap(n.l); err != nil {
		return err
	}
	return t.checkHeap(n.r)
}

// String renders the profile compactly, identically to the flat
// backend — the differential tests compare the two byte for byte.
func (t *PersistentProfile) String() string {
	s := fmt.Sprintf("profile{cap %d:", t.capacity)
	t.visit(t.root, 0, func(k model.Time, v int) bool {
		s += fmt.Sprintf(" [%d:%d free]", k, v)
		return true
	})
	return s + "}"
}
