#!/usr/bin/env bash
# Build and run the simulator scaling bench, writing BENCH_sim.json at the
# repo root (schema anor.bench_sim.v1; see README.md).  Every case carries
# a per-phase span-profiler summary ("profile": us_per_step + p50/p95/p99
# per phase) next to the steps/sec numbers; the profiler-overhead gate
# (bench_prof_overhead) runs afterwards so a regression in the profiler
# itself fails the harness.  The sweep-executor bench (bench_sweep) runs
# next, writing BENCH_sweep.json and enforcing its own warm-start (>= 3x)
# and result-cache (>= 10x) gates.  The emulated-tier bench (bench_emu)
# runs last, writing BENCH_emu.json (the Fig. 9 run at 16/64/256 nodes).
# Every bench runs even when an earlier one fails; the script then exits
# nonzero and names each one that failed.
# Compare two reports with tools/compare_bench.py.
#
# Usage: tools/run_bench.sh [build_dir] [--quick]
#   build_dir  CMake build directory (default: build)
#   --quick    short cases only (1000-node sweep, 16-node emulated run), for
#              smoke-testing the harness
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build
QUICK=""
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK="--quick" ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" --target bench_sim_scale bench_prof_overhead bench_sweep bench_emu \
  -j "$(nproc)"

# Stamp the report with the revision that produced it (dirty trees are
# marked so a number from uncommitted code can't masquerade as HEAD's).
rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [[ "$rev" != unknown ]] && ! git diff --quiet HEAD -- 2>/dev/null; then
  rev="${rev}-dirty"
fi
failed=()
ANOR_GIT_REVISION="$rev" "$BUILD_DIR"/bench/bench_sim_scale BENCH_sim.json $QUICK ||
  failed+=(bench_sim_scale)
"$BUILD_DIR"/bench/bench_prof_overhead $QUICK || failed+=(bench_prof_overhead)
ANOR_GIT_REVISION="$rev" "$BUILD_DIR"/bench/bench_sweep BENCH_sweep.json $QUICK ||
  failed+=(bench_sweep)
ANOR_GIT_REVISION="$rev" "$BUILD_DIR"/bench/bench_emu BENCH_emu.json $QUICK ||
  failed+=(bench_emu)
if ((${#failed[@]} > 0)); then
  echo "run_bench: failed: ${failed[*]}" >&2
  exit 1
fi
