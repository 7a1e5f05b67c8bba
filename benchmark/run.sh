#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ (under the current directory,
# which must be the root of the checkout) and runs it with the given
# arguments. Everything the toolchain writes — build cache, module
# cache, temporary files, the binary, scratch journals — stays inside
# the checkout.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$build/iwbench" .
exec "$build/iwbench" "$@"
