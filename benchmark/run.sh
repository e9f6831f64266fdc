#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Everything the build leaves
# behind (binary, Go build cache) stays in .bench_build/ inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
if [ -z "${BENCH_COMMIT:-}" ]; then
	BENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
export BENCH_COMMIT
(cd "$here" && go build -buildvcs=false -o "$build/octbench" .)
exec "$build/octbench" "$@"
