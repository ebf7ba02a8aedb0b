#!/usr/bin/env bash
# Pre-merge gate: the tier-1 verify from ROADMAP.md plus sanitizer passes —
# ASan/UBSan over the telemetry suite (its registry/ring are updated
# concurrently from control loops), the even-slowdown differential suite
# (the budgeter's hash table and grouped-decision fallback against the
# job-ordered reference), the repeated-add helper, the simulator's node
# table (lane, row and power-source indices, the idle and run-break
# bitmaps), job table (the lazily merged running set) and completion
# queue, the emulated job tier (the flat MSR register file, the agent
# tree's fixed scratch and span-written policy splits, the pooled
# modeler buffers, the emulated goldens and the zero-allocation tick),
# and the streaming JSON writer, cache-entry reader, Json::parse, export
# goldens, the spec and grid readers (parsers of untrusted files) and the
# wire-frame decoder, and TSan over what still runs concurrently: seeded
# trials on a shared metrics registry, the sweep executor's run workers
# (tabular and emulated runs, whose in-process tier links take no lock),
# concurrent policy dispatch and the result cache's concurrent stores and
# lookups (each run itself steps serially).
#
# Usage: tools/check_tier1.sh [build-dir]
#   build-dir defaults to `build`; the sanitizer builds go to
#   `<build-dir>-asan` and `<build-dir>-tsan`.  Exits non-zero on the
#   first failure.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-build}"
jobs="$(nproc 2>/dev/null || echo 2)"

cd "$repo_root"

# Run a gtest binary with a filter, refusing to silently pass when the
# filter matches nothing.  gtest exits 0 when a filter selects zero tests
# (and our gtest predates --gtest_fail_if_no_test_selected), so a renamed
# suite would turn a sanitizer gate into a no-op without this guard.
run_gtest() {
  local binary="$1" filter="$2"
  local listed
  listed="$("$binary" --gtest_filter="$filter" --gtest_list_tests | grep -c '^  ' || true)"
  if [[ "$listed" -eq 0 ]]; then
    echo "error: filter '$filter' selects no tests in $binary" >&2
    return 1
  fi
  "$binary" --gtest_filter="$filter"
}

echo "== tier-1: configure =="
cmake -B "$build_dir" -S .

echo "== tier-1: build =="
cmake --build "$build_dir" -j"$jobs"

echo "== tier-1: ctest =="
ctest --test-dir "$build_dir" --output-on-failure -j"$jobs"

echo "== tier-1: profile smoke (span profiler + Chrome trace) =="
# The profiler must produce a parseable Chrome trace with the expected
# top-level engine phases, per-lane monotonic timestamps, and >= 90%
# wall-time coverage; `anorctl profile --check` exits nonzero otherwise.
# Small scenario so the gate stays fast.
profile_dir="$(mktemp -d)"
trap 'rm -rf "$profile_dir"' EXIT
"$build_dir/tools/anorctl" profile --nodes 300 --duration 600 \
  --check --trace-out "$profile_dir/profile_trace.json" \
  --metrics-out "$profile_dir/profile_metrics.prom"

echo "== tier-1: sweep smoke (batch executor + result cache) =="
# A 2x2 grid run twice against a scratch cache: the second invocation must
# serve >= 90% of cells from the cache (--min-hit-rate exits nonzero
# otherwise) and the deterministic results files must be byte-identical —
# a cache hit that changed a single byte of a RunResult fails the gate.
sweep_dir="$(mktemp -d)"
cat > "$sweep_dir/grid.json" <<'EOF'
{
  "schema": "anor.sweep.v1",
  "name": "tier1-smoke",
  "base": {"backend": "tabular", "node_count": 32, "seed": 7},
  "generate": {"duration_s": 120, "signal": "budget", "utilization": 0.6},
  "axes": [
    {"field": "policy", "values": ["uniform", "characterized"]},
    {"field": "utilization", "values": [0.5, 0.8]}
  ]
}
EOF
"$build_dir/tools/anorctl" sweep --grid "$sweep_dir/grid.json" --quiet \
  --cache-dir "$sweep_dir/cache" --results-out "$sweep_dir/first.json"
"$build_dir/tools/anorctl" sweep --grid "$sweep_dir/grid.json" --quiet \
  --cache-dir "$sweep_dir/cache" --results-out "$sweep_dir/second.json" \
  --min-hit-rate 0.9
cmp "$sweep_dir/first.json" "$sweep_dir/second.json"
rm -rf "$sweep_dir"

echo "== policy smoke: registry, admission harness, DSL sweep =="
# The open policy set end to end: the registry lists the built-ins, the
# example expression policy passes the full admission harness (envelope,
# tabular determinism, cross-backend parity, chaos determinism), a noisy
# policy is rejected, and a grid-registered DSL policy sweeps with
# non-aliasing cache keys (second pass must hit the cache).
policy_dir="$(mktemp -d)"
"$build_dir/tools/anorctl" policy list
"$build_dir/tools/anorctl" policy admit --name dsl-fairshare \
  --expr "clamp(budget_w / total_nodes, p_min, p_max)" \
  --duration 360 --nodes 4 --chaos-duration 120
if "$build_dir/tools/anorctl" policy admit --name dsl-noisy \
  --expr "fair_w * noise()" --no-chaos --duration 300 --nodes 4; then
  echo "error: non-deterministic policy was admitted" >&2
  exit 1
fi
cat > "$policy_dir/grid.json" <<'EOF'
{
  "schema": "anor.sweep.v1",
  "name": "tier1-policy-smoke",
  "policies": [
    {"name": "dsl-fairshare",
     "expr": "clamp(budget_w / total_nodes, p_min, p_max)",
     "summary": "equal per-node budget slice"}
  ],
  "base": {"backend": "tabular", "node_count": 4, "seed": 7},
  "generate": {"duration_s": 300, "signal": "budget", "utilization": 0.6},
  "axes": [
    {"field": "policy", "values": ["characterized", "dsl-fairshare"]},
    {"field": "utilization", "values": [0.5, 0.8]}
  ]
}
EOF
"$build_dir/tools/anorctl" sweep --grid "$policy_dir/grid.json" --quiet \
  --cache-dir "$policy_dir/cache" --results-out "$policy_dir/first.json"
"$build_dir/tools/anorctl" sweep --grid "$policy_dir/grid.json" --quiet \
  --cache-dir "$policy_dir/cache" --results-out "$policy_dir/second.json" \
  --min-hit-rate 0.9
cmp "$policy_dir/first.json" "$policy_dir/second.json"
rm -rf "$policy_dir"

echo "== sanitizers: ASan/UBSan telemetry, even-slowdown differential, node table, emulated job tier, JSON streaming =="
asan_dir="${build_dir}-asan"
cmake -B "$asan_dir" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=undefined,float-cast-overflow -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined,float-cast-overflow"
cmake --build "$asan_dir" -j"$jobs" --target telemetry_test util_test budget_test engine_test sim_test \
  platform_test geopm_test model_test alloc_test cluster_test anorctl
"$asan_dir/tests/telemetry_test"
run_gtest "$asan_dir/tests/util_test" 'Logger.*:VirtualClock.*'
# util::add_repeated against the plain add loop, bit for bit: the
# significand arithmetic, shifts and bit casts behind the total power and
# the busy floor.
run_gtest "$asan_dir/tests/util_test" 'AddRepeated.*'
# The grouped solve against the job-ordered reference: the open-addressed
# model table, the cap memo's slot index and tables
# (filled past both bounds) and the grouped-decision fallback.
run_gtest "$asan_dir/tests/budget_test" 'EvenSlowdownDifferential.*'
# Every node read goes through a lane, row or power-source index, job
# starts read the idle bitmap from its hint, starts and finishes write
# per node block against a per-node model, and the total power walks the
# run-break bitmap; the running set merges a started tail and the
# completion queue indexes a heap by row: the node- and job-table unit
# tests, whole runs checked tick by tick, the lane properties, and the
# completion gate against a full scan.
run_gtest "$asan_dir/tests/sim_test" \
  'NodeTable*:SimRowCaps.*:SimLanes.*:JobTable*:SimCompletionGate.*'
# The emulated job tier writes through spans into fixed scratch: the MSR
# register file's flat table, the agent tree's per-position records and
# the balancer's in-place split, PlatformIO's resolved batches, the
# endpoint rings and caller-owned drain buffer, and the modeler's pooled
# buckets (sorted inserts into a reused buffer).  The two emulated
# goldens run the whole tier end to end; the allocation test holds the
# steady-state tick at zero allocations.
run_gtest "$asan_dir/tests/platform_test" 'MsrFile.*:CpuPackage.*:Node.*'
run_gtest "$asan_dir/tests/geopm_test" \
  'AgentTree.*:TreeTopology.*:BalancerTest.*:ControllerTest.*:PlatformIoTest.*:PowerGovernorTest.*:Endpoint.*'
run_gtest "$asan_dir/tests/model_test" 'AggregateByCap.*:Reclassifier.*:OnlineModeler.*'
run_gtest "$asan_dir/tests/engine_test" 'EmulatedDeterminism.*'
run_gtest "$asan_dir/tests/alloc_test" 'SteadyStateAllocation.*'
# The streaming writer and number formatter against Json::dump/printf,
# the cursor (and Json::parse, built on it) against the original parser
# on mutated texts, the cache-entry reader on truncated and byte-flipped
# entries, and the golden bytes of every export.
run_gtest "$asan_dir/tests/util_test" 'Json.*:JsonNumberFormat.*:JsonWriterProperty.*:JsonCursorProperty.*'
run_gtest "$asan_dir/tests/engine_test" 'ExportDifferential.*:CacheReaderProperty.*:ExportGolden.*'
# The spec, grid and schedule readers (files users hand to anorctl): the
# checked integer reader at and past each type's range, and seeded
# mutants of valid scenario and grid documents, each of which must read
# into specs that round-trip or throw ConfigError.
run_gtest "$asan_dir/tests/util_test" 'JsonCheckedInteger.*'
run_gtest "$asan_dir/tests/engine_test" 'SpecReader*'
# Wire frames (what a peer sends): checksum-valid frames with integer
# fields out of range, and seeded mutants of valid frames, each of which
# must decode to a message that re-encodes to the same frame or throw
# TransportError.  float-cast-overflow (not in GCC's `undefined` group)
# catches a double cast to an integer it does not fit; no UBSan check
# recovers, so a report fails the binary instead of only printing.
run_gtest "$asan_dir/tests/cluster_test" 'Messages*'

echo "== sanitizers: TSan parallel-trial + run-worker suite =="
tsan_dir="${build_dir}-tsan"
cmake -B "$tsan_dir" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$tsan_dir" -j"$jobs" --target sim_test engine_test
# Known false positives from the uninstrumented system libstdc++ (see
# tools/tsan.supp); real races in our code are still reported.
export TSAN_OPTIONS="suppressions=$repo_root/tools/tsan.supp ${TSAN_OPTIONS:-}"
# Four seeded trials step concurrently with telemetry on, sharing the
# global metrics registry.
run_gtest "$tsan_dir/tests/sim_test" 'SimDeterminism.ParallelSeededTrialsShareRegistrySafely'
# The sweep executor's run-level workers (atomic cursor, shared result
# cache, disjoint report slots; on an emulated grid each run's clock
# binding and lock-free tier links stay on its own worker); the registry
# filter drives concurrent policy dispatch (run_scenario resolving
# built-ins) against concurrent register/get/unregister of custom names;
# the cache filter has two threads storing and looking up shared and
# private keys with both tiers on, entry I/O running outside the cache
# lock.
run_gtest "$tsan_dir/tests/engine_test" \
  'SweepExecutorTest.*:PolicyRegistry.Concurrent*:ResultCacheTest.Concurrent*'

echo "== chaos smoke: drop+delay+crash plan under ASan/UBSan =="
# Closed-loop fault injection: the command itself exits non-zero unless
# tracking recovers into the 5 % band with zero budget leaked to dead
# jobs and the fault-event trace is byte-identical across two runs.
"$asan_dir/tools/anorctl" chaos --plan drop10_crash1 --verify-determinism
# The kitchen-sink plan adds delay, duplication, corruption, reorder,
# a disconnect window, and transient MSR faults on top.
"$asan_dir/tools/anorctl" chaos --plan chaos --verify-determinism

echo "== check_tier1: all green =="
