#!/usr/bin/env bash
# The benchmark driver's command: build the harness from the checkout's
# sources and run it with the driver's arguments. Everything it writes stays
# inside the checkout — the Go build cache and the binary under
# .bench_build/, scratch databases and reports under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
cd "$here"
go build -o "$build/lsmbench" .
exec "$build/lsmbench" "$@"
