# Tier-1 verification for the serving code (resbook, server,
# reschedd): formatting, vet, the reschedvet domain analyzers, the
# full suite under the race detector, a one-iteration benchmark smoke
# run so benchmarks cannot bit-rot, a short fuzz smoke of the
# profile/parser invariants, and the vet and tests of the nested
# bench/ module. `make test` is the quick non-race cycle;
# `make bench` produces the machine-readable perf trajectory
# ($(BENCH_OUT)).

GO ?= go

# Benchmarks that feed the BENCH_*.json trajectory: the CPA allocation
# hot path, the tightest-deadline search, the profile primitives, and
# the serving path.
BENCH_PKGS ?= ./internal/cpa ./internal/core ./internal/profile ./internal/server ./internal/resbook ./internal/lifecycle
# BENCH_PR names the PR whose trajectory file `make bench` writes by
# default; override either variable to target another file, e.g.
#   make bench BENCH_PR=PR4
#   make bench BENCH_OUT=/tmp/scratch.json
BENCH_PR ?= PR28
BENCH_OUT ?= BENCH_$(BENCH_PR).json
BENCH_LABEL ?= optimized

# bench-compare gates the serving hot path against this committed
# baseline: the named benchmark prefixes may regress neither ns/op nor
# allocs/op by more than BENCH_THRESHOLD percent.
BENCH_BASE ?= BENCH_PR18.json
BENCH_THRESHOLD ?= 15
BENCH_GATE ?= internal/cpa.BenchmarkAllocate,internal/cpa.BenchmarkAllocateExtend,internal/core.BenchmarkTightestDeadline,internal/profile.BenchmarkProfileScaling,internal/profile.BenchmarkFitsBatch,internal/resbook.BenchmarkSnapshot,internal/resbook.BenchmarkTransact,internal/resbook.BenchmarkEarliestPendingActivation,internal/server.BenchmarkSchedulePost,internal/server.BenchmarkScheduleThroughput,internal/lifecycle.BenchmarkReplay

# How long each fuzz target runs in fuzz-smoke.
FUZZTIME ?= 10s

.PHONY: ci fmt vet lint test race race-all build bench bench-compare bench-smoke bench-module fuzz-smoke replay-smoke paper-check vuln mutants

ci: fmt vet lint race replay-smoke paper-check bench-smoke bench-module fuzz-smoke vuln

build:
	$(GO) build ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs the domain-aware reschedvet analyzers (see
# internal/analysis) over the whole module with the cross-package
# facts dump enabled, so CI logs show which facts (may-block, lock
# contracts, fire-and-forget) each conclusion rests on.
# Any diagnostic fails the target — and therefore ci — with a
# file:line message.
lint:
	$(GO) run ./cmd/reschedvet -facts ./...

test:
	$(GO) test ./...

# race runs the packages where the serving concurrency lives — the
# reservation book's optimistic Transact loop and the HTTP worker pool
# — under the race detector on every ci run, plus the analyzer suite
# (its fixture harness runs real type-checking and the analyzers
# themselves guard the locking discipline, so they get the same
# scrutiny) — and the profile package, whose persistent handles have
# one word, the edit token, that Clone writes under the book's read
# lock — and the experiment drivers of internal/sim, whose scenario
# callbacks run on a worker pool and must each write only their own
# row. race-all is the full-tree sweep for slower, occasional use.
race:
	$(GO) test -race ./internal/profile/... ./internal/resbook/... ./internal/server/... ./internal/lifecycle/... ./internal/analysis/... ./internal/sim/...

# replay-smoke drives a short canned trace through the online
# lifecycle engine under the race detector: a capacity-constrained
# day of CTC_SP2 arrivals, which exercises placement, backfill under
# the activation guardrail, starvation reservations, and the
# activation/completion event path end to end.
replay-smoke:
	$(GO) run -race ./cmd/resreplay -arch CTC_SP2 -days 1 -seed 7 -procs 64 -starve-attempts 4

race-all:
	$(GO) test -race ./...

# mutants scores the safety net: it applies each seeded fault of
# internal/analysis/mutants/catalogue.go to a temporary copy of the
# module and prints which of go vet, go test, go test -race and the
# reschedvet analyzers kill it (DESIGN.md §20 has the matrix). It takes
# 72-82 minutes on a 2-vCPU machine (the two 63-mutant runs in
# DESIGN.md §20), so it is not part of ci.
mutants:
	$(GO) run ./internal/analysis/mutants

# paper-check reruns EXPERIMENTS.md's command for results_medium.txt
# (deterministic at its seed; ~25-45 s on 2 vCPUs) and diffs the output
# against the committed file. Tables 9 and 10 are wall-clock times and
# are left out; any other difference means a change moved a paper
# result, and fails the target.
UNTIMED = awk '/^Table (9|10):/ { skip = 1 } skip && /^$$/ { skip = 0 } !skip'
paper-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/resexp -table all -apps 8 -dagreps 3 -starts 3 -taggings 2 -seed 1 > "$$tmp/got" && \
	$(UNTIMED) results_medium.txt > "$$tmp/want" && \
	$(UNTIMED) "$$tmp/got" > "$$tmp/got.untimed" && \
	diff -u "$$tmp/want" "$$tmp/got.untimed" && \
	echo "paper-check: results_medium.txt reproduced (Tables 9 and 10 not compared)"

# bench runs the trajectory benchmarks with -benchmem and folds the
# results into $(BENCH_OUT) under $(BENCH_LABEL) (see cmd/benchjson
# for the JSON format). Existing labels — e.g. the committed baseline
# — are preserved.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out $(BENCH_OUT)

# bench-compare re-runs the trajectory benchmarks into a scratch file
# and diffs them against the committed $(BENCH_BASE): per-benchmark
# ns/op and allocs/op deltas are printed, and a gated benchmark
# regressing either beyond $(BENCH_THRESHOLD)% fails the target, which
# names the count that tripped (see cmd/benchjson; allocation counts
# are exact and get no spread slack, only a two-allocation floor).
# Five repetitions are run and benchjson keeps the
# fastest — the minimum is the noise-robust estimator, without which a
# 15% gate flakes on a busy or single-core machine (interleaved A/B
# runs of identical binaries on a 1-vCPU VM show ±10% swings that
# min-of-3 does not reliably absorb). The gate additionally widens by
# each benchmark's own repetition spread, capped at 2x the threshold
# (see cmd/benchjson): a delta smaller than the jitter between
# identical repetitions carries no signal.
bench-compare:
	$(GO) test -run='^$$' -bench=. -benchmem -count=5 $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out /tmp/resched-bench-compare.json
	$(GO) run ./cmd/benchjson compare -label $(BENCH_LABEL) -threshold $(BENCH_THRESHOLD) -gate '$(BENCH_GATE)' $(BENCH_BASE) /tmp/resched-bench-compare.json

# bench-smoke executes every benchmark in the repo exactly once so CI
# catches benchmarks that no longer compile or crash. No timing is
# recorded.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-module vets and tests bench/, the repository's benchmark
# (BENCHMARK.json). It is a Go module of its own, so no ./... pattern
# above reaches it; bench/run.sh runs the same two commands before
# every benchmark run, and this puts them in ci as well.
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

# fuzz-smoke gives each native fuzz target a short budget so CI keeps
# the harnesses compiling and shakes the invariants on fresh inputs.
# `go test -fuzz` accepts one target per invocation, hence one line
# per target.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzProfileReserveUnreserve$$' -fuzztime=$(FUZZTIME) ./internal/profile
	$(GO) test -run='^$$' -fuzz='^FuzzPersistentVsFlat$$' -fuzztime=$(FUZZTIME) ./internal/profile
	$(GO) test -run='^$$' -fuzz='^FuzzTreeProfileVsFlat$$' -fuzztime=$(FUZZTIME) ./internal/profile
	$(GO) test -run='^$$' -fuzz='^FuzzScheduleParseRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzBinaryCodecRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/api
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=$(FUZZTIME) ./internal/dagio
	$(GO) test -run='^$$' -fuzz='^FuzzWrite$$' -fuzztime=$(FUZZTIME) ./internal/dagio

# vuln is advisory: it reports known-vulnerable dependencies when
# govulncheck is installed but never fails the build (and this module
# is stdlib-only, so findings would point at the toolchain itself).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vuln: advisory findings above (not fatal)"; \
	else \
		echo "vuln: govulncheck not installed; skipping (advisory)"; \
	fi
