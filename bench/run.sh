#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness — and with it the
# program under test — from source into .bench_build/ inside the checkout,
# then runs it with the caller's arguments. Everything the Go toolchain
# writes (build cache, telemetry) is redirected into the checkout too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/pgfmu-bench" .) >&2
cd "$root"
exec "$build/pgfmu-bench" "$@"
