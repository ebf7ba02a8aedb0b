// Golden determinism regression for the optimized simulator hot path.
//
// The SoA caches, incremental aggregates, and sharded stepping are only
// admissible because they reproduce the reference trace bit-for-bit; these
// tests pin a seeded 1000-node run (and a job-dense 2000-node one) to
// recorded hashes and assert them invariant under worker count and
// telemetry instrumentation.  The
// parallel-trials test doubles as the TSan target for the shared metrics
// registry (see tools/check_tier1.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "util/shard_workers.hpp"

namespace anor::sim {
namespace {

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t trace_hash(const SimResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a(r.power_w.values().data(), r.power_w.size() * sizeof(double), h);
  for (const auto& q : r.qos.records()) {
    h = fnv1a(&q.job_id, sizeof(q.job_id), h);
    h = fnv1a(&q.submit_s, sizeof(q.submit_s), h);
    h = fnv1a(&q.start_s, sizeof(q.start_s), h);
    h = fnv1a(&q.end_s, sizeof(q.end_s), h);
  }
  return h;
}

/// `node_scale` 0 scales every job type's node count by nodes/40 (a few
/// wide jobs at any size); 1 keeps the native 1-2-node jobs, so the
/// running-job count grows with the cluster.
std::uint64_t run_seeded(int nodes, double duration_s, int step_workers, bool telemetry,
                         int step_shard_nodes = 256, int node_scale = 0) {
  SimConfig config;
  config.node_count = nodes;
  config.duration_s = duration_s;
  config.job_types =
      standard_sim_types(true, node_scale > 0 ? node_scale : std::max(1, nodes / 40));
  config.bid.average_power_w = nodes * 150.0;
  config.bid.reserve_w = nodes * 18.0;
  config.telemetry_enabled = telemetry;
  config.step_workers = step_workers;
  config.step_shard_nodes = step_shard_nodes;

  return trace_hash(make_simulation(config, 0.75, 42).run());
}

// Recorded from the seed run (power trace + QoS records, FNV-1a).  Any
// change to this value means the simulator's numerics changed — an
// optimization that moves it is a bug, not a tolerance issue.
constexpr std::uint64_t kGolden1000Node600s = 0xb3a442b79219c7d9ULL;

TEST(SimDeterminism, GoldenTraceHash1000Nodes) {
  EXPECT_EQ(run_seeded(1000, 600.0, 0, false), kGolden1000Node600s);
}

// Job-dense counterpart: native job sizes keep ~1k jobs running, so the
// trace also pins the running-set churn and the per-job cap write-back.
constexpr std::uint64_t kGoldenJobDense2000Node600s = 0x6c231d4cbb49d89dULL;

TEST(SimDeterminism, GoldenTraceHashJobDense) {
  for (int workers : {0, 2, 4}) {
    EXPECT_EQ(run_seeded(2000, 600.0, workers, false, 256, 1), kGoldenJobDense2000Node600s)
        << "step_workers=" << workers;
  }
}

TEST(SimDeterminism, WorkerCountCannotChangeTheTrace) {
  for (int workers : {1, 2, 4, 8}) {
    EXPECT_EQ(run_seeded(1000, 600.0, workers, false), kGolden1000Node600s)
        << "step_workers=" << workers;
  }
}

TEST(SimDeterminism, TelemetryCannotChangeTheTrace) {
  EXPECT_EQ(run_seeded(1000, 600.0, 0, true), kGolden1000Node600s);
  EXPECT_EQ(run_seeded(1000, 600.0, 4, true), kGolden1000Node600s);
}

TEST(SimDeterminism, WorkerAndShardSizeMatrixAtOddNodeCount) {
  // 777 nodes: odd, non-power-of-two, not a multiple of any shard size
  // below — ragged final shards and ragged lane slices everywhere.  The
  // trace must be invariant across the full (workers x shard size) matrix,
  // including shard size 0 (auto-sized from nodes and workers, so the
  // shard boundaries themselves differ per column) and a shard size larger
  // than the node count (one shard, all workers but one idle).
  const std::uint64_t reference = run_seeded(777, 300.0, 0, false, 256);
  ASSERT_NE(reference, 0u);
  for (int workers : {0, 2, 4, 8}) {
    for (int shard : {0, 64, 257, 1000}) {
      EXPECT_EQ(run_seeded(777, 300.0, workers, false, shard), reference)
          << "step_workers=" << workers << " step_shard_nodes=" << shard;
    }
  }
}

TEST(SimDeterminism, AutoShardSizeResolution) {
  // step_shard_nodes = 0 auto-sizes to ~4 shards per worker, floored at 64
  // nodes per shard so tiny clusters do not shatter into dispatch overhead.
  EXPECT_EQ(resolve_step_shard_nodes(1'000'000, 8, 0), 31250);
  EXPECT_EQ(resolve_step_shard_nodes(10'000, 4, 0), 625);
  EXPECT_EQ(resolve_step_shard_nodes(1000, 8, 0), 64);    // floor engaged
  EXPECT_EQ(resolve_step_shard_nodes(777, 0, 0), 195);    // serial treated as 1 worker
  EXPECT_EQ(resolve_step_shard_nodes(1000, 4, 256), 256); // explicit wins
  EXPECT_EQ(resolve_step_shard_nodes(1000, 4, 7), 64);    // explicit but floored
}

TEST(SimDeterminism, ParallelSeededTrialsShareRegistrySafely) {
  // Four identical seeded trials run concurrently with telemetry on: they
  // hammer the same global MetricsRegistry from four threads (the TSan
  // target) and must still each produce the reference trace.
  util::ShardWorkers team(4);
  std::vector<std::uint64_t> hashes(team.worker_count(), 0);
  team.run([&hashes](std::size_t lane) { hashes[lane] = run_seeded(200, 300.0, 0, true); });
  for (std::size_t t = 1; t < hashes.size(); ++t) EXPECT_EQ(hashes[t], hashes[0]);
  EXPECT_NE(hashes[0], 0u);
}

}  // namespace
}  // namespace anor::sim
