#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own in this directory) and runs
# it from the repository root with the given arguments. Everything the
# build and the run write stays inside the checkout: the Go build cache and
# the binary under bench/.build, WAL files, traces and results under
# bench/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
build="$here/.build"
mkdir -p "$build/gocache" "$build/tmp"
# Nothing is downloaded (the module has no dependencies beyond the
# repository itself); the Go tool still wants these to exist somewhere.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$here" -o "$build/bench" .
exec "$build/bench" "$@"
