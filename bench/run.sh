#!/bin/sh
# Checks, builds and runs the benchmark from the root of the checkout:
#
#	bash bench/run.sh --workload serve_commit --seed 1 --seconds 26 --trace 0
#
# bench/ is a module of its own, so nothing the repository runs at its
# root (go test ./..., go vet ./..., make ci) reaches it. This script is
# what does: go vet and the package's tests — the manifest in step with
# the code, every workload at a small scale — run before the build, and a
# failure stops the run without a result. Go caches both, so only the
# first run after a change pays for them (a few seconds).
#
# Everything the build and the tests write — the binary, Go's build
# cache, temporary files, telemetry counters — goes under .bench_build/
# in the checkout, so a run touches nothing outside it. The first run
# compiles the standard library into that cache; later runs reuse it.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go vet . && go test . >&2 && go build -o "$out/resbench" .)
cd "$root"
exec "$out/resbench" "$@"
