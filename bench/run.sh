#!/usr/bin/env bash
# Builds the end-to-end serving benchmark from source and runs it with the
# given arguments, from the repository root:
#
#   bash bench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the binary, the telemetry store of the
# persist-query workload and the traced run's span files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gotmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
# The build uses the installed toolchain and the sources in the checkout
# alone: no toolchain or module downloads, and no user go env file or
# GOFLAGS to change it.
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$out/thermbench" .)
cd "$root"
exec "$out/thermbench" "$@"
