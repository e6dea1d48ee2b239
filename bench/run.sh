#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from that root. Everything the build writes
# (binary, Go build cache) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=
cd "$here"
# The commit is stamped into the binary where git can read the checkout;
# where it cannot (no repository, or one git refuses), build without it.
go build -o "$build/nlarm-bench" . 2>/dev/null || go build -buildvcs=false -o "$build/nlarm-bench" .
cd "$root"
exec "$build/nlarm-bench" "$@"
