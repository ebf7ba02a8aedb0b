// Golden determinism regression for the optimized simulator hot path.
//
// The SoA caches and incremental aggregates are only admissible because
// they reproduce the reference trace bit-for-bit; these tests pin a
// seeded 1000-node run (and a job-dense 2000-node one) to recorded hashes
// and assert them invariant under telemetry instrumentation.  The
// parallel-trials test doubles as the TSan target for the shared metrics
// registry (see tools/check_tier1.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"

namespace anor::sim {
namespace {

/// `node_scale` 0 scales every job type's node count by nodes/40 (a few
/// wide jobs at any size); 1 keeps the native 1-2-node jobs, so the
/// running-job count grows with the cluster.
std::uint64_t run_seeded(int nodes, double duration_s, bool telemetry, int node_scale = 0) {
  SimConfig config;
  config.node_count = nodes;
  config.duration_s = duration_s;
  config.job_types =
      standard_sim_types(true, node_scale > 0 ? node_scale : std::max(1, nodes / 40));
  config.telemetry_enabled = telemetry;
  const workload::DemandResponseBid bid{nodes * 150.0, nodes * 18.0};
  return trace_hash(make_simulation(config, bid, 0.75, 42).run());
}

// Recorded from the seed run (power trace + QoS records, FNV-1a).  Any
// change to this value means the simulator's numerics changed — an
// optimization that moves it is a bug, not a tolerance issue.
constexpr std::uint64_t kGolden1000Node600s = 0xb3a442b79219c7d9ULL;

TEST(SimDeterminism, GoldenTraceHash1000Nodes) {
  EXPECT_EQ(run_seeded(1000, 600.0, false), kGolden1000Node600s);
}

// Job-dense counterpart: native job sizes keep ~1k jobs running, so the
// trace also pins the running-set churn and the per-job cap write-back.
constexpr std::uint64_t kGoldenJobDense2000Node600s = 0x6c231d4cbb49d89dULL;

TEST(SimDeterminism, GoldenTraceHashJobDense) {
  EXPECT_EQ(run_seeded(2000, 600.0, false, 1), kGoldenJobDense2000Node600s);
}

TEST(SimDeterminism, TelemetryCannotChangeTheTrace) {
  EXPECT_EQ(run_seeded(1000, 600.0, true), kGolden1000Node600s);
}

TEST(SimDeterminism, ParallelSeededTrialsShareRegistrySafely) {
  // Four identical seeded trials run concurrently with telemetry on: they
  // hammer the same global MetricsRegistry from four threads (the TSan
  // target) and must still each produce the reference trace.
  std::vector<std::uint64_t> hashes(4, 0);
  std::vector<std::thread> trials;
  for (std::size_t t = 0; t < hashes.size(); ++t) {
    trials.emplace_back([&hashes, t] { hashes[t] = run_seeded(200, 300.0, true); });
  }
  for (std::thread& trial : trials) trial.join();
  for (std::size_t t = 1; t < hashes.size(); ++t) EXPECT_EQ(hashes[t], hashes[0]);
  EXPECT_NE(hashes[0], 0u);
}

}  // namespace
}  // namespace anor::sim
