#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the Go toolchain
# writes (build cache, module cache, temporary files, telemetry) is kept
# inside .bench_build/ too, so a run touches nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
(cd benchmark && go build -o "$build/rapidbench" .) >&2
exec "$build/rapidbench" "$@"
