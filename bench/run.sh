#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# and runs it with the arguments given. Everything the go command writes
# (build cache, module cache, its own counters) is kept under bench/.build
# so a run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/x100bench" .)
exec "$build/x100bench" -work "$here/.work" -out-dir "$here/out" "$@"
