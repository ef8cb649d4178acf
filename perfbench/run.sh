#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload long_horizon --seed 1 --seconds 8 --trace 0
#
# Build products, the Go build cache and the result documents all stay under
# .bench_build/ in the current directory; nothing outside it is written.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

# The go command keeps its telemetry counters under the user's config
# directory; pointing that into the build directory keeps every write here.
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
