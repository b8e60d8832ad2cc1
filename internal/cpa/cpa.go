// Package cpa implements the CPA (Critical Path and Area-based)
// mixed-parallel scheduling algorithm of Radulescu & van Gemund (ICPP
// 2001), which the paper's heuristics reuse in three roles: computing
// task bottom levels (BL_CPA / BL_CPAR), bounding task allocations
// (BD_CPA / BD_CPAR), and producing the reference start times that
// guide the resource-conservative deadline algorithms (DL_RC_*).
//
// CPA has two phases. The allocation phase starts every task at one
// processor and repeatedly grants one more processor to the
// critical-path task that profits most, until the critical path length
// T_CP no longer exceeds the average area T_A = (1/P)·Σ m(t)·T(t,m(t)).
// A finished run for P processors is usually the first part of the run
// for a larger P', so Run.Extend continues it when it can prove that
// (DESIGN.md §19). The mapping phase list-schedules tasks in decreasing
// bottom-level order (PriorityOrder) onto the cluster; core replays it
// for the reference start times, and ListSchedule (reference.go) is its
// oracle.
//
// The paper uses the improved stopping criterion of N'Takpé, Suter &
// Casanova (ISPDC 2007), which curbs CPA's tendency to over-allocate.
// That paper's exact rule is unavailable offline; StopStringent
// reproduces its effect by capping each task's allocation at the point
// where its parallel efficiency would drop below MinEfficiency (see
// DESIGN.md, Section 6). The classic rule remains available as
// StopClassic for ablation.
//
// The allocation phase evaluates T_CP and T_A on the unrounded
// (fractional-second) Amdahl model: whole-second rounding creates
// plateaus and spurious critical-path ties that would make marginal
// gains vanish artificially. Rounding is applied afterwards, when
// schedules are built.
package cpa

import (
	"fmt"
	"slices"
	"sort"

	"resched/internal/dag"
	"resched/internal/model"
)

// StopRule selects the allocation-phase stopping criterion.
type StopRule int

const (
	// StopStringent runs the classic loop but additionally refuses to
	// grow a task past the allocation where its parallel efficiency
	// T(1)/(m*T(m)) would fall below MinEfficiency. This limits
	// allocations the way the improved criterion of [34] does and is
	// the library default — what the paper means by "CPA".
	StopStringent StopRule = iota
	// StopClassic is the original CPA rule: iterate while T_CP > T_A,
	// growing critical-path tasks without an efficiency floor.
	StopClassic
)

// MinEfficiency is the parallel-efficiency floor enforced by
// StopStringent. Under Amdahl's law a task's efficiency on m
// processors is 1/(alpha*m + 1 - alpha), so the floor translates to a
// per-task allocation cap of (1/MinEfficiency - 1 + alpha)/alpha
// processors; fully parallel tasks (alpha = 0) are never capped
// because their work does not grow with m.
const MinEfficiency = 0.25

func (r StopRule) String() string {
	switch r {
	case StopStringent:
		return "stringent"
	case StopClassic:
		return "classic"
	default:
		return fmt.Sprintf("StopRule(%d)", int(r))
	}
}

// cpTolerance absorbs float summation noise when testing whether a
// task lies on the critical path (tl + bl == T_CP up to rounding).
const cpTolerance = 1e-6

// Allocate runs the CPA allocation phase for a cluster of p processors
// and returns the per-task processor counts, each in [1, p]. It is
// NewRun(g, p, rule).Alloc().
//
// The refinement loop is incremental: bottom and top levels are
// maintained by worklist propagation from the single task whose
// execution time changed (instead of two full O(V+E) sweeps per
// iteration), the area term Σ m·T(m) is updated in O(1), and each
// task's marginal gain is cached at its current allocation so
// model.Gain never runs in the candidate scan. The retained naive
// implementation (reference.go) is the differential-test oracle:
// both produce identical allocation vectors.
func Allocate(g *dag.Graph, p int, rule StopRule) ([]int, error) {
	r, err := NewRun(g, p, rule)
	if err != nil {
		return nil, err
	}
	return r.alloc, nil
}

// NewRun runs the CPA allocation phase for a cluster of p processors
// and keeps its state, so that Extend can continue it for a larger
// cluster instead of starting over.
func NewRun(g *dag.Graph, p int, rule StopRule) (*Run, error) {
	if p < 1 {
		return nil, fmt.Errorf("cpa: cluster size %d < 1", p)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	r := newRun(g, topo, p, rule)
	r.refine()
	return r, nil
}

// Alloc returns the run's allocation vector. It is never written
// again: Extend grants into a copy.
func (st *Run) Alloc() []int { return st.alloc }

// Extend continues the run as the run for p processors and reports
// whether it did. It refuses, leaving the run untouched, when p is not
// larger than the run's size or when some task sits at a cap that p
// would raise. Otherwise the continued run is exactly what
// NewRun(g, p, rule) computes: the cluster size enters the loop only
// in the stopping test and the caps, and allocations only grow, so a
// task that is not held back at the end was held back at no step
// (DESIGN.md §19). Extend grants into a copy of the allocation
// vector, so a vector Alloc returned earlier never changes.
func (st *Run) Extend(p int) bool {
	if p <= st.p {
		return false
	}
	for i, a := range st.alloc {
		if a >= st.caps[i] && taskCap(st.stringent, st.g.Task(i).Alpha, p) > st.caps[i] {
			return false
		}
	}
	for i := range st.caps {
		st.caps[i] = taskCap(st.stringent, st.g.Task(i).Alpha, p)
	}
	st.alloc = slices.Clone(st.alloc)
	st.p = p
	st.refine()
	return true
}

// refine is the allocation phase's loop: grant one processor to the
// best critical-path candidate until T_CP no longer exceeds T_A or no
// candidate can grow.
func (st *Run) refine() {
	p := float64(st.p)
	for {
		cp := st.criticalPath()
		if !(cp > st.area/p) {
			break // T_CP no longer exceeds T_A
		}
		t := st.bestCandidate(cp)
		if t < 0 {
			break // every critical-path task is at its allocation cap
		}
		st.grow(t)
	}
}

// Run is the incrementally maintained state of one allocation-phase
// run for a cluster of p processors.
type Run struct {
	g       *dag.Graph
	p       int
	alloc   []int
	caps    []int
	exec    []float64 // unrounded Amdahl time at the current allocation
	bl, tl  []float64 // float bottom/top levels for the current exec
	maxSucc []float64 // max successor bl (bl[i] = exec[i] + maxSucc[i])
	gain    []float64 // model.Gain at the current allocation
	area    float64   // Σ alloc[i]·exec[i]

	// Adjacency flattened to CSR form: successors of task i are
	// succ[succOff[i]:succOff[i+1]], likewise pred/predOff. The level
	// repairs spend nearly all their time in these scans, and the
	// contiguous layout beats chasing the graph's per-task slices.
	succ, pred       []int32
	succOff, predOff []int32

	// depth is the longest-path depth of each task, which is static
	// across the run (it depends only on the DAG's structure). Every
	// edge strictly increases depth, so draining dirty tasks bucket by
	// bucket — descending for bottom levels, ascending for top levels —
	// recomputes each task exactly once, after everything it depends on
	// is final, without any priority queue.
	//
	// The buckets live in one flat scratch buffer segmented by depth
	// (CSR layout, like the adjacency): depth d's dirty tasks are
	// bucketBuf[depthOff[d] : depthOff[d]+bucketCnt[d]]. The per-depth
	// capacity is exact — a task is marked at most once — and the flat
	// form keeps mark, the hottest bookkeeping op, to two int32 stores
	// instead of an append with its slice-header write-back. Draining
	// depth d never races its own window: repairBL marks only strictly
	// shallower tasks (an edge increases depth) and drainTL only
	// strictly deeper ones.
	depth     []int32
	depthOff  []int32 // tasks-per-depth CSR offsets, len maxDepth+2
	bucketBuf []int32 // flat dirty-task storage, len n
	bucketCnt []int32 // live entries per depth, len maxDepth+1
	inDirty   []bool
	pending   int32 // total tasks currently marked dirty

	// stringent says the caps are efficiency caps (StopStringent), not
	// p. It shares pending's word, which keeps Run in the 416-byte size
	// class (TestRunLayout).
	stringent bool
}

func newRun(g *dag.Graph, topo []int, p int, rule StopRule) *Run {
	n := g.NumTasks()
	st := &Run{
		g:         g,
		p:         p,
		stringent: rule == StopStringent,
		alloc:     g.UniformAlloc(1),
		caps:      make([]int, n),
		exec:      make([]float64, n),
		bl:        make([]float64, n),
		tl:        make([]float64, n),
		maxSucc:   make([]float64, n),
		gain:      make([]float64, n),
	}
	for i := 0; i < n; i++ {
		task := g.Task(i)
		st.exec[i] = model.ExecSeconds(task.Seq, task.Alpha, 1)
		st.gain[i] = model.Gain(task.Seq, task.Alpha, 1)
		st.caps[i] = taskCap(st.stringent, task.Alpha, p)
		st.area += st.exec[i] // alloc is uniformly 1
	}

	// CSR adjacency.
	st.succOff = make([]int32, n+1)
	st.predOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		st.succOff[i+1] = st.succOff[i] + int32(len(g.Successors(i)))
		st.predOff[i+1] = st.predOff[i] + int32(len(g.Predecessors(i)))
	}
	st.succ = make([]int32, st.succOff[n])
	st.pred = make([]int32, st.predOff[n])
	for i := 0; i < n; i++ {
		for k, s := range g.Successors(i) {
			st.succ[int(st.succOff[i])+k] = int32(s)
		}
		for k, p := range g.Predecessors(i) {
			st.pred[int(st.predOff[i])+k] = int32(p)
		}
	}

	// Longest-path depths and the per-depth dirty buckets.
	st.depth = make([]int32, n)
	var maxDepth int32
	for _, t := range topo {
		var d int32
		for _, p := range g.Predecessors(t) {
			if st.depth[p]+1 > d {
				d = st.depth[p] + 1
			}
		}
		st.depth[t] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	st.depthOff = make([]int32, maxDepth+2)
	for i := 0; i < n; i++ {
		st.depthOff[st.depth[i]+1]++
	}
	for d := int32(0); d <= maxDepth; d++ {
		st.depthOff[d+1] += st.depthOff[d]
	}
	st.bucketBuf = make([]int32, n)
	st.bucketCnt = make([]int32, maxDepth+1)
	st.inDirty = make([]bool, n)

	// Full initial level sweeps; every later iteration only repairs
	// the sub-DAG reachable from the one task that changed.
	for i := n - 1; i >= 0; i-- {
		t := topo[i]
		var best float64
		for _, s := range g.Successors(t) {
			if st.bl[s] > best {
				best = st.bl[s]
			}
		}
		st.maxSucc[t] = best
		st.bl[t] = st.exec[t] + best
	}
	for _, t := range topo {
		for _, p := range g.Predecessors(t) {
			if v := st.tl[p] + st.exec[p]; v > st.tl[t] {
				st.tl[t] = v
			}
		}
	}
	return st
}

// mark flags a task for level recomputation, once.
func (st *Run) mark(t int32) {
	if st.inDirty[t] {
		return
	}
	st.inDirty[t] = true
	d := st.depth[t]
	st.bucketBuf[st.depthOff[d]+st.bucketCnt[d]] = t
	st.bucketCnt[d]++
	st.pending++
}

// criticalPath returns T_CP, the largest bottom level. It must stay a
// leaf loop: it runs once per refinement iteration and the inliner
// keeps it inside refine's loop. It keeps a compare-and-assign: the
// running maximum rarely changes over a full scan, so the branch
// predicts well, while the builtin max (used in the level repairs,
// whose scans are a few successors long) chains a branch-free
// NaN-and-zero-safe sequence through every element: 25-task
// allocations ran ≈ 25 % slower with it on a 2-vCPU x86-64 host.
func (st *Run) criticalPath() float64 {
	var cp float64
	for _, v := range st.bl {
		if v > cp {
			cp = v
		}
	}
	return cp
}

// bestCandidate returns the critical-path task with the largest
// per-processor gain whose allocation can still grow within its cap,
// or -1. Gains are read from the cache, never recomputed here. Like
// criticalPath it must stay a leaf loop so it inlines into refine.
func (st *Run) bestCandidate(cp float64) int {
	best := -1
	var bestGain float64
	for i := range st.bl {
		if st.tl[i]+st.bl[i] < cp-cpTolerance || st.alloc[i] >= st.caps[i] {
			continue
		}
		if best < 0 || st.gain[i] > bestGain {
			best, bestGain = i, st.gain[i]
		}
	}
	return best
}

// grow grants task t one more processor and repairs every derived
// quantity: its execution time, the area term, its cached gain, and
// the levels of the tasks its change can reach.
func (st *Run) grow(t int) {
	task := st.g.Task(t)
	old := st.exec[t]
	oldContrib := st.tl[t] + old // t's contribution to its successors' tl
	st.alloc[t]++
	st.exec[t] = model.ExecSeconds(task.Seq, task.Alpha, st.alloc[t])
	st.area += float64(st.alloc[t])*st.exec[t] - float64(st.alloc[t]-1)*old
	st.gain[t] = model.Gain(task.Seq, task.Alpha, st.alloc[t])
	st.repairBL(t)
	// Top levels: t's own tl does not depend on exec[t]; only
	// successors for which t attained the incoming maximum can change.
	for _, s := range st.succ[st.succOff[t]:st.succOff[t+1]] {
		if oldContrib == st.tl[s] {
			st.mark(s)
		}
	}
	st.drainTL(st.depth[t] + 1)
}

// repairBL recomputes bottom levels upward from t. Dirty tasks are
// drained in decreasing depth-bucket order, so every successor's bl is
// final when a task is recomputed (tasks of equal depth share no
// edges). A predecessor is marked only when the changed task attained
// its cached successor maximum — execution times only shrink during
// the refinement loop, so a non-maximal successor that shrinks further
// cannot move the max — which keeps the repair frontier to the argmax
// chains instead of the full ancestor cone. Levels are finite and
// non-negative, so the builtin max here and in drainTL returns the
// float a compare-and-assign would, without a data-dependent branch.
func (st *Run) repairBL(t int) {
	st.mark(int32(t))
	bl, maxSucc := st.bl, st.maxSucc
	for d := st.depth[t]; st.pending > 0; d-- {
		c := st.bucketCnt[d]
		if c == 0 {
			continue
		}
		st.bucketCnt[d] = 0
		st.pending -= c
		off := st.depthOff[d]
		for _, u := range st.bucketBuf[off : off+c] {
			st.inDirty[u] = false
			var best float64
			for _, s := range st.succ[st.succOff[u]:st.succOff[u+1]] {
				best = max(best, bl[s])
			}
			maxSucc[u] = best
			nb := st.exec[u] + best
			if nb == bl[u] {
				continue
			}
			old := bl[u]
			bl[u] = nb
			for _, p := range st.pred[st.predOff[u]:st.predOff[u+1]] {
				if old == maxSucc[p] {
					st.mark(p)
				}
			}
		}
	}
}

// drainTL recomputes top levels downward from the seeded dirty set, in
// increasing depth-bucket order so every predecessor is final when a
// task is recomputed. For any task with predecessors tl is exactly the
// maximum incoming contribution, so the attainment check needs no
// separate cache: a successor is marked only when the changed task's
// old contribution equals the successor's tl.
func (st *Run) drainTL(from int32) {
	tl, exec := st.tl, st.exec
	for d := from; st.pending > 0; d++ {
		c := st.bucketCnt[d]
		if c == 0 {
			continue
		}
		st.bucketCnt[d] = 0
		st.pending -= c
		off := st.depthOff[d]
		for _, u := range st.bucketBuf[off : off+c] {
			st.inDirty[u] = false
			var nt float64
			for _, p := range st.pred[st.predOff[u]:st.predOff[u+1]] {
				nt = max(nt, tl[p]+exec[p])
			}
			if nt == tl[u] {
				continue
			}
			oldContrib := tl[u] + exec[u]
			tl[u] = nt
			for _, s := range st.succ[st.succOff[u]:st.succOff[u+1]] {
				if oldContrib == tl[s] {
					st.mark(s)
				}
			}
		}
	}
}

// taskCap returns a task's allocation cap on p processors: the
// efficiency cap under StopStringent, p under StopClassic.
func taskCap(stringent bool, alpha float64, p int) int {
	if stringent {
		return allocCap(alpha, p)
	}
	return p
}

// allocCap returns the largest allocation keeping a task's Amdahl
// efficiency at or above MinEfficiency, clamped to [1, p].
func allocCap(alpha float64, p int) int {
	if alpha <= 0 {
		return p
	}
	m := int((1/MinEfficiency - 1 + alpha) / alpha)
	if m < 1 {
		m = 1
	}
	if m > p {
		m = p
	}
	return m
}

// PriorityOrder returns the task IDs sorted by decreasing bottom level
// under the given execution times, the list-scheduling priority used by
// CPA's mapping phase and by all of the paper's algorithms. With
// positive execution times this order is automatically topological
// (a predecessor's bottom level strictly exceeds its successors');
// zero-time ties are broken by topological position for safety.
func PriorityOrder(g *dag.Graph, exec []model.Duration) ([]int, error) {
	bl, err := g.BottomLevels(exec)
	if err != nil {
		return nil, err
	}
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	topoPos := make([]int, g.NumTasks())
	for i, t := range topo {
		topoPos[t] = i
	}
	order := append([]int(nil), topo...)
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if bl[a] != bl[b] {
			return bl[a] > bl[b]
		}
		return topoPos[a] < topoPos[b]
	})
	return order, nil
}
