#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet-churn --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the module cache,
# temporary build files, and the binary all stay under .bench_build/ in
# the checkout (or $CARGO_TARGET_DIR when set), and no module is fetched.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
