#!/usr/bin/env bash
# Builds the benchmark into the build directory of the checkout and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload reprocess-warm --seed 1 --seconds 20 --trace 0
#
# The benchmark is a Go module of its own that imports the repository module
# through a replace directive, so it needs the repository's go.mod one level
# up; without it the build fails and the script exits non-zero. Every file the
# toolchain writes (build cache, temporary files, the binary) stays under
# ${CARGO_TARGET_DIR:-.bench_build}.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" .)
export PERFBENCH_DIR="$build"
exec "$build/perfbench" "$@"
