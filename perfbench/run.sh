#!/usr/bin/env bash
# Builds the cooperative-search benchmark from the source tree it sits in
# and runs it with the given arguments, e.g.
#
#	bash perfbench/run.sh --workload regression-teg --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build" "$@"
