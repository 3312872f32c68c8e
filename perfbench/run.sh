#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash perfbench/run.sh --workload gwdb-serve --seed 1 --seconds 45 --trace 0
# Build outputs, the Go build cache, the build's temporary files and run
# scratch files go to $CARGO_TARGET_DIR (default .bench_build) under the
# current directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
src="$(cd "$(dirname "$0")" && pwd)"
(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
