#!/usr/bin/env bash
# bench.sh — the solver benchmark harness.
#
# Runs the solver-path micro-benchmarks (the root EV6 benchmarks, the rcnet
# backend matrix with the N=16384/N=65536 reference-grid rows, the linalg
# kernel benchmarks: numeric refactorization, solve-kernel widths, the
# lockstep-width rows: one backward-Euler step of a 1-, 4-, 4+1-, 5-, 6-,
# 7- and 8-wide group on the EV6 air-sink and grid:64x64 oil factors, in
# ns/step (5–7 run as one padded 8-wide pass), and the
# tstore telemetry-store group: ingest rows/s — gated at ≥1M rows/s on one
# core — plus rollup and raw query latency, and the fleet routing group:
# bounded-load ring lookups, proxy wire overhead against no-op backends,
# and the failover window p99 while the primary owner is dead, the
# trace-decode row: ns/row and allocs/op streaming a 30 000-row, 18-column
# ptrace built like the persist-query workload's, and the warm in-process
# service handler rows: an 8-trace grid:64x64 sweep and a 64-block
# grid:32x32 steady request, with B/op and allocs/op, and the live-CPU
# rows: uarch cycles/s on gcc and one warm live-CPU scenario request of the
# dtm-grid workload's spec, recording its tapes and with them cached, with
# B/op and allocs/op) and emits
# BENCH_solver.json via cmd/benchreport:
# ns/op, B/op, allocs/op, custom metrics, GOMAXPROCS and the commit hash.
#
# The suite runs once per GOMAXPROCS value in BENCH_PROCS (default "1 4"):
# the single-core run is the per-core trajectory row, the multicore run
# exercises the worker pools of the batched sweeps and replays (the
# factorization is serial, so its rows should not scale). Each run chains
# into the report via -prev, so the history array carries one entry per
# (commit, gomaxprocs) and baselines/speedups match per core count (see
# cmd/benchreport).
#
# Usage, from the repository root:
#
#	./scripts/bench.sh                   # full run, rewrites BENCH_solver.json
#	BENCHTIME=1x ./scripts/bench.sh      # CI smoke: one iteration per benchmark
#	BENCH_PROCS=1 ./scripts/bench.sh     # single-core only
#	OUT=/tmp/b.json ./scripts/bench.sh   # write elsewhere
set -euo pipefail
cd "$(dirname "$0")/.."

# Per-group iteration counts: the EV6 step/solve benchmarks are ~1 µs/op and
# need many iterations for a stable number, the sweep is ~0.7 ms/op, the
# rcnet backend matrix spans ~20 µs to ~330 ms rows (dense N=2048 transient),
# the linalg kernel rows sit at ~5-25 ms, and the live-CPU rows at ~100 ms
# (1M uarch cycles) and ~20 ms (one live request). Setting BENCHTIME
# overrides all of them (CI smoke passes BENCHTIME=1x).
STEP_BENCHTIME="${BENCHTIME:-50000x}"
SWEEP_BENCHTIME="${BENCHTIME:-1000x}"
RCNET_BENCHTIME="${BENCHTIME:-20x}"
KERNEL_BENCHTIME="${BENCHTIME:-20x}"
TSTORE_BENCHTIME="${BENCHTIME:-200x}"
FLEET_BENCHTIME="${BENCHTIME:-200x}"
TRACE_BENCHTIME="${BENCHTIME:-20x}"
HANDLER_BENCHTIME="${BENCHTIME:-20x}"
LIVE_BENCHTIME="${BENCHTIME:-10x}"
OUT="${OUT:-BENCH_solver.json}"
BENCH_PROCS="${BENCH_PROCS:-1 4}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

for procs in $BENCH_PROCS; do
  : > "$tmp"
  echo "=== GOMAXPROCS=$procs ==="

  echo "== root solver benchmarks (-benchtime $STEP_BENCHTIME)"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkTransientStepBE$|BenchmarkSteadyStateSolve$' \
    -benchmem -benchtime "$STEP_BENCHTIME" . | tee -a "$tmp"

  echo "== trace replay sweep (-benchtime $SWEEP_BENCHTIME)"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkTraceReplaySweep$' \
    -benchmem -benchtime "$SWEEP_BENCHTIME" . | tee -a "$tmp"

  echo "== rcnet backend benchmarks (-benchtime $RCNET_BENCHTIME)"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkBackendSteadyStateSolveOnly|BenchmarkBackendTransientBE' \
    -benchmem -benchtime "$RCNET_BENCHTIME" ./internal/rcnet | tee -a "$tmp"

  echo "== linalg kernel benchmarks (-benchtime $KERNEL_BENCHTIME)"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkCholeskyFactorNumeric|BenchmarkSolveKernelWidths' \
    -benchmem -benchtime "$KERNEL_BENCHTIME" ./internal/linalg | tee -a "$tmp"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkLockstepWidths' \
    -benchmem -benchtime "$KERNEL_BENCHTIME" ./internal/hotspot | tee -a "$tmp"

  echo "== tstore telemetry store benchmarks (-benchtime $TSTORE_BENCHTIME)"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkTstore' \
    -benchmem -benchtime "$TSTORE_BENCHTIME" ./internal/tstore | tee -a "$tmp"

  echo "== fleet routing benchmarks (-benchtime $FLEET_BENCHTIME)"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkFleet' \
    -benchmem -benchtime "$FLEET_BENCHTIME" ./internal/fleet | tee -a "$tmp"

  echo "== trace decode benchmark (-benchtime $TRACE_BENCHTIME)"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkTraceDecode$' \
    -benchmem -benchtime "$TRACE_BENCHTIME" ./internal/trace | tee -a "$tmp"

  echo "== service handler benchmarks (-benchtime $HANDLER_BENCHTIME)"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkSweepGrid64Handler$|BenchmarkSteadyGrid32Handler$' \
    -benchmem -benchtime "$HANDLER_BENCHTIME" ./internal/service | tee -a "$tmp"

  echo "== live-CPU benchmarks (-benchtime $LIVE_BENCHTIME)"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkUarchThroughput$' \
    -benchmem -benchtime "$LIVE_BENCHTIME" . | tee -a "$tmp"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkScenarioLiveGrid$|BenchmarkScenarioLiveGridWarmTapes$|BenchmarkScenarioLiveGridDiverged$' \
    -benchmem -benchtime "$LIVE_BENCHTIME" ./internal/scenario | tee -a "$tmp"

  prev_args=()
  if [ -f "$OUT" ]; then
    prev_args=(-prev "$OUT")
  fi
  GOMAXPROCS="$procs" go run ./cmd/benchreport -commit "$commit" "${prev_args[@]}" -out "$OUT" < "$tmp"
done
echo "wrote $OUT"
