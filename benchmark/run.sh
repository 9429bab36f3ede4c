#!/usr/bin/env bash
# Entry point of the repository's benchmark (see BENCHMARK.json and README.md).
# Builds the two programs under test and the harness from source into
# .bench_build/ at the root of the checkout, then runs the harness with the
# caller's flags. Everything the build writes (binaries, Go's build cache,
# temp files) stays inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$here/out"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root" && go build -o "$build/bin/" ./cmd/lightne ./cmd/lightne-serve)
(cd "$here" && go build -o "$build/bin/lightne-benchmark" .)

cd "$root"
exec "$build/bin/lightne-benchmark" -bin "$build/bin" -out "$here/out" -bounds "$root/BENCHMARK.json" "$@"
