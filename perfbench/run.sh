#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-eval --seed 1 --seconds 28 --trace 0
#
# The binary, the Go build cache and every scratch file stay under
# .bench_build/ in the checkout. The build fails, and so does this script,
# when the repository's sources are not next to perfbench/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
