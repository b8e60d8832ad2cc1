package main

// catalogue is the fixed set of seeded faults: mutants on the
// production code behind the analyzers' documented checks (or, where
// the tree has no subject left, the smallest realistic instance of
// one), the fault classes ROADMAP.md lists for scoring the safety net,
// and the hand mutants of DESIGN §13, §17, §18 and §19. DESIGN §20 has
// the matrix it scored and the checks it leaves without a mutant.
var catalogue = []mutant{
	// DESIGN §13: the Pending-start index and the recycled Transact
	// buffer.
	{"activate-skips-pop", "internal/resbook/resbook.go",
		"r.Status = Active\n\t\tb.settlePendingLocked()\n",
		"r.Status = Active\n"},
	{"release-skips-pop", "internal/resbook/resbook.go",
		"r.Status = Released\n\tb.settlePendingLocked()\n",
		"r.Status = Released\n"},
	{"row-filed-without-push", "internal/resbook/resbook.go",
		"b.res[r.ID] = r\n\tb.pushPendingLocked(r)\n",
		"b.res[r.ID] = r\n"},
	{"transact-buffer-put-early", "internal/resbook/resbook.go",
		"defer b.scratch.Put(prof)",
		"b.scratch.Put(prof)"},

	// DESIGN §17: edit tokens of the persistent profile.
	{"clone-keeps-edit-open", "internal/profile/persistent.go",
		"\tt.seal()\n\treturn &PersistentProfile{",
		"\treturn &PersistentProfile{"},
	{"clone-inherits-token", "internal/profile/persistent.go",
		"\tt.seal()\n\treturn &PersistentProfile{capacity: t.capacity, origin: t.origin, root: t.root, n: t.n, seed: t.seed}",
		"\tc := &PersistentProfile{capacity: t.capacity, origin: t.origin, root: t.root, n: t.n, seed: t.seed}\n\tc.edit.Store(t.edit.Load())\n\tt.seal()\n\treturn c"},
	{"one-token-for-every-edit", "internal/profile/persistent.go",
		"t.edit.Store(editTokens.Add(1))",
		"t.edit.Store(1)"},

	// DESIGN §18: the RESSCHEDDL plan.
	{"replay-never-restarts", "internal/core/plan.go",
		"if rank[t] < next {",
		"if rank[t] < 0 {"},
	{"reference-drops-now", "internal/core/deadline.go",
		"refStart := env.Now + pl.ref[t]",
		"refStart := pl.ref[t]"},
	{"plan-key-drops-qref", "internal/core/plan.go",
		"key := planKey{p, q, qRef}",
		"key := planKey{p, q, q}"},
	{"fallback-ignores-bound", "internal/core/deadline.go",
		"if !boundedFallback {\n\t\t\t\treqs = s.unbounded(pl, t, env.P)\n\t\t\t}",
		"reqs = s.unbounded(pl, t, env.P)"},
	{"table-per-probe", "internal/core/plan.go",
		"if pl.full[t] == nil {",
		"if true {"},
	{"partial-pass-cached", "internal/core/deadline.go",
		"\t\tref, err := referenceStarts(ctx, s.g, pl.order, pl.alloc, qRef)\n\t\tif err != nil {\n\t\t\treturn nil, fmt.Errorf(\"core: CPA reference schedule: %w\", err)\n\t\t}\n\t\tpl.ref = ref",
		"\t\tpl.ref = make([]model.Duration, s.g.NumTasks())\n\t\tref, err := referenceStarts(ctx, s.g, pl.order, pl.alloc, qRef)\n\t\tif err != nil {\n\t\t\treturn nil, fmt.Errorf(\"core: CPA reference schedule: %w\", err)\n\t\t}\n\t\tcopy(pl.ref, ref)"},

	// Section 5.2's picks, which only paper-check used to kill: the RC
	// pick's tie and inclusive threshold (now the window floor of its
	// LatestFits query), and the aggressive pick's tie, decided inside
	// LatestFitMax's staircase.
	{"rc-tie-to-more-procs", "internal/core/deadline.go",
		"if !ok || lst < st {",
		"if !ok || lst <= st {"},
	{"rc-threshold-exclusive", "internal/core/deadline.go",
		"max(env.Now, threshold)",
		"max(env.Now, threshold+1)"},
	{"latest-pick-tie-to-more-procs", "internal/profile/profile.go",
		"s >= floor && (k < 0 || s > best)",
		"s >= floor && (k < 0 || s >= best)"},

	// DESIGN §19: the resumable CPA run.
	{"extend-skips-held-back-check", "internal/cpa/cpa.go",
		"\tfor i, a := range st.alloc {\n\t\tif a >= st.caps[i] && taskCap(st.stringent, st.g.Task(i).Alpha, p) > st.caps[i] {\n\t\t\treturn false\n\t\t}\n\t}\n",
		""},
	{"extend-no-clone", "internal/cpa/cpa.go",
		"st.alloc = slices.Clone(st.alloc)",
		"st.alloc = slices.Clip(st.alloc)"},
	{"extend-caps-not-raised", "internal/cpa/cpa.go",
		"\tfor i := range st.caps {\n\t\tst.caps[i] = taskCap(st.stringent, st.g.Task(i).Alpha, p)\n\t}\n",
		""},
	{"extend-size-not-updated", "internal/cpa/cpa.go",
		"\tst.p = p\n\tst.refine()",
		"\tst.refine()"},
	{"fresh-run-not-kept", "internal/core/core.go",
		"\t\ts.run = r\n\t}\n\ta := s.run.Alloc()",
		"\t\ts.allocCache[n] = r.Alloc()\n\t\treturn r.Alloc(), nil\n\t}\n\ta := s.run.Alloc()"},
	{"extend-to-smaller", "internal/cpa/cpa.go",
		"if p <= st.p {",
		"if p == st.p {"},

	// The capacity-validated commit: a misfit that keeps the pieces
	// applied before it, a fence that is never checked, and a misfit
	// at the snapshot's own version reported as stale.
	{"commit-keeps-pieces-on-misfit", "internal/resbook/resbook.go",
		"\t\t\tfor k := i - 1; k >= 0; k-- {\n\t\t\t\tb.unreserveLocked(reqs[k])\n\t\t\t}\n",
		""},
	{"fence-not-checked", "internal/resbook/resbook.go",
		"\tif len(b.pending) > 0 && b.pending[0].Start < fence {\n\t\treturn nil, fmt.Errorf(\"%w: %w: reservation %s activates at %d, before %d\", ErrStale, errFenced, b.pending[0].ID, b.pending[0].Start, fence)\n\t}\n",
		""},
	{"misfit-at-snapshot-version-stale", "internal/resbook/resbook.go",
		"if v := b.version.Load(); v != snap.Version {",
		"if v := b.version.Load(); v >= snap.Version {"},
	// A fence refusal retried like any stale commit, and a server retry
	// budget that runs one attempt too many.
	{"fence-refusal-retried", "internal/resbook/resbook.go",
		"if !errors.Is(err, ErrStale) || errors.Is(err, errFenced) {",
		"if !errors.Is(err, ErrStale) {"},
	{"retry-budget-off-by-one", "internal/server/handlers.go",
		"s.writeScheduleResponse(w, bin, http.StatusOK, &resp)\n\t\t\treturn\n\t\t}\n\t\tif errors.Is(err, resbook.ErrStale) {\n\t\t\tretries++\n\t\t\ts.metrics.retries.Add(1)\n\t\t\tif retries > s.cfg.MaxRetries {",
		"s.writeScheduleResponse(w, bin, http.StatusOK, &resp)\n\t\t\treturn\n\t\t}\n\t\tif errors.Is(err, resbook.ErrStale) {\n\t\t\tretries++\n\t\t\ts.metrics.retries.Add(1)\n\t\t\tif retries > s.cfg.MaxRetries+1 {"},

	// refguard: a reference implementation on a production path.
	{"allocate-calls-reference", "internal/cpa/cpa.go",
		"\tr, err := NewRun(g, p, rule)\n\tif err != nil {\n\t\treturn nil, err\n\t}\n\treturn r.alloc, nil",
		"\treturn referenceAllocate(g, p, rule)"},

	// poolescape: use after Put (above, and here), a borrow that
	// outlives its Put through a view of it, one stored in a struct
	// field, and one captured by a goroutine.
	{"binpool-put-before-write", "internal/server/codec.go",
		"\tdefer s.binPool.Put(bp)\n\tb := resp.AppendBinary((*bp)[:0])\n\t*bp = b[:0] // keep the (possibly regrown) backing array pooled\n",
		"\tb := resp.AppendBinary((*bp)[:0])\n\t*bp = b[:0] // keep the (possibly regrown) backing array pooled\n\ts.binPool.Put(bp)\n"},
	{"blob-aliases-pooled-body", "internal/api/binary.go",
		"\tout := make([]byte, len(b))\n\tcopy(out, b)\n\treturn out",
		"\treturn b"},

	{"snapshot-forced-into-buffer", "internal/server/handlers.go",
		"\t\tsnap := s.book.SnapshotInto(prof)\n\t\tenv := core.Env{P: s.book.Capacity(), Now: now, Avail: snap.Avail, Q: q}",
		"\t\tsnap := s.book.SnapshotInto(prof)\n\t\tsnap.Avail = prof\n\t\tenv := core.Env{P: s.book.Capacity(), Now: now, Avail: snap.Avail, Q: q}"},
	{"response-written-async", "internal/server/codec.go",
		"\tif _, err := w.Write(e.buf.Bytes()); err != nil {\n\t\ts.log.Warn(\"writing response\", \"status\", code, \"err\", err)\n\t}\n}",
		"\tgo w.Write(e.buf.Bytes())\n}"},
	// An equivalent mutant: a correct getter that hands the borrow to
	// its caller, which still Puts it.
	{"encbuf-getter", "internal/server/codec.go",
		"func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {\n\te := s.encPool.Get().(*encBuf)\n\tdefer s.putEncBuf(e)\n\te.buf.Reset()\n",
		"func (s *Server) getEncBuf() *encBuf {\n\te := s.encPool.Get().(*encBuf)\n\te.buf.Reset()\n\treturn e\n}\n\nfunc (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {\n\te := s.getEncBuf()\n\tdefer s.putEncBuf(e)\n"},

	// checkedentry: a panicking profile query in serving code.
	{"forecast-unchecked-fit", "internal/lifecycle/lifecycle.go",
		"\tfit, err := avail.EarliestFitChecked(job.Procs, job.Dur, now)\n\tif err != nil {\n\t\treturn Forecast{}, fmt.Errorf(\"lifecycle: forecast %s: %w\", id, err)\n\t}\n",
		"\tfit := avail.EarliestFit(job.Procs, job.Dur, now)\n"},
	{"free-at-unchecked", "internal/lifecycle/lifecycle.go",
		"\tfree, err := avail.MinFreeChecked(t, t+1)\n\tif err != nil {\n\t\treturn 0\n\t}\n\treturn free",
		"\treturn avail.MinFree(t, t+1)"},

	// ctxflow: a fresh root context, and a non-Ctx sibling.
	{"transact-background-ctx", "internal/lifecycle/engine.go",
		"booked, _, err := e.book.TransactBefore(ctx, e.cfg.MaxRetries, fence, func(snap resbook.Snapshot) ([]resbook.Request, error) {",
		"booked, _, err := e.book.TransactBefore(context.Background(), e.cfg.MaxRetries, fence, func(snap resbook.Snapshot) ([]resbook.Request, error) {"},
	{"deadline-without-ctx", "internal/server/handlers.go",
		"sched, err := sch.DeadlineCtx(r.Context(), env, algo, k)",
		"sched, err := sch.Deadline(env, algo, k)"},

	// modeexhaustive: the deadlineAggressive bug the analyzer once
	// found, both as a missing default and as a silent one.
	{"aggressive-switch-no-default", "internal/core/deadline.go",
		"\tcase DLBDCPA:\n\t\tqRef = env.P\n\tdefault:\n\t\t// DeadlineCtx dispatches only the DL_BD algorithms here; an\n\t\t// unhandled one would otherwise fall through to DL_BD_CPAR's\n\t\t// bound and fail far from the cause.\n\t\treturn nil, fmt.Errorf(\"core: %v is not an aggressive deadline algorithm\", algo)\n\t}",
		"\tcase DLBDCPA:\n\t\tqRef = env.P\n\t}"},
	{"aggressive-switch-silent-default", "internal/core/deadline.go",
		"\t\treturn nil, fmt.Errorf(\"core: %v is not an aggressive deadline algorithm\", algo)\n",
		"\t\tqRef = q\n"},

	// snapshotmut: a snapshot that hands out the book's live profile.
	{"snapshot-aliases-book", "internal/resbook/resbook.go",
		"b.prof.CloneInto(dst)",
		"snap.Avail = b.prof"},

	// lockhold: a book operation, a Wait, a re-acquire and a blocking
	// send under a lock.
	{"release-under-engine-lock", "internal/lifecycle/engine.go",
		"\t\tif err := e.book.Release(ev.resID); err != nil {\n\t\t\treturn fmt.Errorf(\"lifecycle: releasing %s for job %s: %w\", ev.resID, ev.jobID, err)\n\t\t}\n\t\te.stats.completions.Add(1)\n\t\te.mu.Lock()\n",
		"\t\te.mu.Lock()\n\t\tif err := e.book.Release(ev.resID); err != nil {\n\t\t\te.mu.Unlock()\n\t\t\treturn fmt.Errorf(\"lifecycle: releasing %s for job %s: %w\", ev.resID, ev.jobID, err)\n\t\t}\n\t\te.stats.completions.Add(1)\n"},
	{"close-waits-under-lock", "internal/lifecycle/online.go",
		"\tcancel := e.cancel\n\te.mu.Unlock()\n\tif cancel != nil {\n\t\tcancel()\n\t}\n\te.wg.Wait()\n",
		"\tcancel := e.cancel\n\tif cancel != nil {\n\t\tcancel()\n\t}\n\te.wg.Wait()\n\te.mu.Unlock()\n"},
	{"activate-drops-unlock", "internal/resbook/resbook.go",
		"func (b *Book) Activate(id string) error {\n\tb.mu.Lock()\n\tdefer b.mu.Unlock()\n",
		"func (b *Book) Activate(id string) error {\n\tb.mu.Lock()\n"},

	{"submit-wakes-under-lock", "internal/lifecycle/lifecycle.go",
		"\tout := *j\n\te.mu.Unlock()\n\te.stats.arrivals.Add(1)\n\tif e.started.Load() {\n\t\tselect {\n\t\tcase e.wake <- struct{}{}:\n\t\tdefault:\n\t\t}\n\t}\n",
		"\tout := *j\n\te.stats.arrivals.Add(1)\n\tif e.started.Load() {\n\t\te.wake <- struct{}{}\n\t}\n\te.mu.Unlock()\n"},

	// lockcycle: the tree has one lock level, so the smallest instance
	// of an ordering edge is a nested acquisition.
	{"forecast-snapshot-under-lock", "internal/lifecycle/lifecycle.go",
		"\tjob := *j\n\tnow := e.now\n\te.mu.Unlock()\n",
		"\tjob := *j\n\tnow := e.now\n\tdefer e.mu.Unlock()\n"},

	// errdrop: a blank discard, a bare call and an overwritten error.
	{"release-error-discarded", "internal/lifecycle/engine.go",
		"\t\tif err := e.book.Release(ev.resID); err != nil {\n\t\t\treturn fmt.Errorf(\"lifecycle: releasing %s for job %s: %w\", ev.resID, ev.jobID, err)\n\t\t}\n",
		"\t\t_ = e.book.Release(ev.resID)\n"},
	{"activate-error-unchecked", "internal/server/handlers.go",
		"\tif err := s.book.Activate(id); err != nil {\n\t\ts.writeLifecycleError(w, err)\n\t\treturn\n\t}\n",
		"\ts.book.Activate(id)\n"},
	{"forecast-error-overwritten", "internal/lifecycle/lifecycle.go",
		"\tfit, err := avail.EarliestFitChecked(job.Procs, job.Dur, now)\n\tif err != nil {\n\t\treturn Forecast{}, fmt.Errorf(\"lifecycle: forecast %s: %w\", id, err)\n\t}\n",
		"\tfit, err := avail.EarliestFitChecked(job.Procs, job.Dur, now)\n"},

	// wgleak: goroutines with no join.
	{"observe-off-request-path", "internal/server/server.go",
		"\t\ts.metrics.observe(dur)\n",
		"\t\tgo s.metrics.observe(dur)\n"},
	{"sim-worker-never-done", "internal/sim/sim.go",
		"\t\tgo func() {\n\t\t\tdefer wg.Done()\n\t\t\tfor j := range jobs {",
		"\t\tgo func() {\n\t\t\tfor j := range jobs {"},
	{"start-adds-in-goroutine", "internal/lifecycle/online.go",
		"\te.wg.Add(1)\n\te.mu.Unlock()\n\tgo e.run(ctx)\n",
		"\te.mu.Unlock()\n\tgo func() {\n\t\te.wg.Add(1)\n\t\te.run(ctx)\n\t}()\n"},

	// guardedby: an access without the lock, a write under a read
	// lock, a *Locked helper called without its lock, and a section
	// that lost the lock its contract call acquired.
	{"observe-without-lock", "internal/server/metrics.go",
		"\tm.mu.Lock()\n\tm.lat[m.n%latWindow] = d\n\tm.n++\n\tm.mu.Unlock()\n",
		"\tm.lat[m.n%latWindow] = d\n\tm.n++\n"},
	{"pending-peek-without-lock", "internal/resbook/resbook.go",
		"\tb.mu.RLock()\n\tdefer b.mu.RUnlock()\n\tif len(b.pending) == 0 {",
		"\tif len(b.pending) == 0 {"},
	{"activate-under-read-lock", "internal/resbook/resbook.go",
		"func (b *Book) Activate(id string) error {\n\tb.mu.Lock()\n\tdefer b.mu.Unlock()\n",
		"func (b *Book) Activate(id string) error {\n\tb.mu.RLock()\n\tdefer b.mu.RUnlock()\n"},
	{"dequeue-after-unlock", "internal/lifecycle/engine.go",
		"\t\tj.GuardBound = guard\n\t\te.removeQueuedLocked(id)\n\t\theap.Push(&e.events, event{at: res.End, kind: evComplete, jobID: id, resID: res.ID})\n\t}\n\te.mu.Unlock()\n",
		"\t\tj.GuardBound = guard\n\t\theap.Push(&e.events, event{at: res.End, kind: evComplete, jobID: id, resID: res.ID})\n\t}\n\te.mu.Unlock()\n\te.removeQueuedLocked(id)\n"},

	{"commit-without-lock", "internal/resbook/resbook.go",
		"\tb.mu.Lock()\n\tdefer b.mu.Unlock()\n\tif len(b.pending) > 0 && b.pending[0].Start < fence {",
		"\tif len(b.pending) > 0 && b.pending[0].Start < fence {"},

	// atomicmix: the latency counter moved to an atomic outside the
	// lock while quantiles still reads it plainly.
	{"ring-counter-atomic", "internal/server/metrics.go",
		"\tn   uint64                   //reschedvet:guardedby mu\n}\n\nfunc (m *metrics) observe(d time.Duration) {\n\tm.mu.Lock()\n\tm.lat[m.n%latWindow] = d\n\tm.n++\n\tm.mu.Unlock()\n}",
		"\tn   uint64\n}\n\nfunc (m *metrics) observe(d time.Duration) {\n\ti := atomic.AddUint64(&m.n, 1) - 1\n\tm.mu.Lock()\n\tm.lat[i%latWindow] = d\n\tm.mu.Unlock()\n}"},

	// hotpath: per-call allocation in a declared hot function.
	{"encode-through-fmt", "internal/api/binary.go",
		"\tdst = appendString(dst, r.Algorithm)\n",
		"\tdst = appendString(dst, fmt.Sprint(r.Algorithm))\n"},
	{"grow-copies-successors", "internal/cpa/cpa.go",
		"\tfor _, s := range st.succ[st.succOff[t]:st.succOff[t+1]] {\n\t\tif oldContrib == st.tl[s] {",
		"\tfor _, s := range append([]int32(nil), st.succ[st.succOff[t]:st.succOff[t+1]]...) {\n\t\tif oldContrib == st.tl[s] {"},

	{"encode-magic-literal", "internal/api/binary.go",
		"dst = append(dst, binMagic0, binMagic1, binVersion, kindScheduleRequest)",
		"dst = append(dst, []byte{binMagic0, binMagic1, binVersion, kindScheduleRequest}...)"},
	{"encode-boxes-float", "internal/api/binary.go",
		"dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.CPUHours))",
		"dst, _ = binary.Append(dst, binary.LittleEndian, r.CPUHours)"},
	{"candidate-closure", "internal/cpa/cpa.go",
		"\t\tif best < 0 || st.gain[i] > bestGain {",
		"\t\tif better := func() bool { return best < 0 || st.gain[i] > bestGain }; better() {"},
	{"repair-dedup-map", "internal/cpa/cpa.go",
		"\t\tfor _, u := range st.bucketBuf[off : off+c] {\n\t\t\tst.inDirty[u] = false\n\t\t\tvar best float64",
		"\t\tdone := make(map[int32]bool, c)\n\t\tfor _, u := range st.bucketBuf[off : off+c] {\n\t\t\tif done[u] {\n\t\t\t\tcontinue\n\t\t\t}\n\t\t\tdone[u] = true\n\t\t\tst.inDirty[u] = false\n\t\t\tvar best float64"},

	// chanflow: the pilot mutants (a close racing Submit's send, a wake
	// channel never made), a worker semaphore with no buffer, a double
	// close and a select on a channel that is never made.
	{"close-closes-wake", "internal/lifecycle/online.go",
		"\te.wg.Wait()\n\te.log.Info(\"lifecycle engine stopped\")\n",
		"\te.wg.Wait()\n\tclose(e.wake)\n\te.log.Info(\"lifecycle engine stopped\")\n"},
	{"wake-never-made", "internal/lifecycle/lifecycle.go",
		"\t\twake: make(chan struct{}, 1),\n",
		""},
	{"semaphore-unbuffered", "internal/server/server.go",
		"sem:     make(chan struct{}, cfg.Workers),",
		"sem:     make(chan struct{}),"},
	{"close-closes-wake-twice", "internal/lifecycle/online.go",
		"\te.wg.Wait()\n\te.log.Info(\"lifecycle engine stopped\")\n",
		"\te.wg.Wait()\n\tclose(e.wake)\n\tclose(e.wake)\n\te.log.Info(\"lifecycle engine stopped\")\n"},
	{"run-selects-nil-wake", "internal/lifecycle/online.go",
		"\tdefer e.wg.Done()\n\tticker := time.NewTicker(e.cfg.Tick)\n\tdefer ticker.Stop()\n\tfor {\n\t\tselect {\n\t\tcase <-ctx.Done():\n\t\t\treturn\n\t\tcase <-ticker.C:\n\t\tcase <-e.wake:",
		"\tdefer e.wg.Done()\n\tvar wake chan struct{}\n\tticker := time.NewTicker(e.cfg.Tick)\n\tdefer ticker.Stop()\n\tfor {\n\t\tselect {\n\t\tcase <-ctx.Done():\n\t\t\treturn\n\t\tcase <-ticker.C:\n\t\tcase <-wake:"},
}
