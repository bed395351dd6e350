#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it:
#
#   bash perfbench/run.sh --workload amplab-colfile --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and each
# run's data files stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -dir "$out/work" "$@"
