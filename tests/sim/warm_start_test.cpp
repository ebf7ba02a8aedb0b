// Warm-start run reuse (sim::WarmStart + engine::run_scenario_warm).
//
// Warm-start is a pure allocation-reuse optimization: a pooled NodeTable
// and fitted model tables may be handed to the next run ONLY because the
// observable results are bit-identical to a cold run.  These tests pin
// that contract, including across job-set changes (which must invalidate
// the model reuse, not corrupt it).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "engine/runner.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep/result_cache.hpp"
#include "sim/simulator.hpp"
#include "sim/tables.hpp"
#include "workload/job_type.hpp"
#include "workload/schedule.hpp"

namespace anor::sim {
namespace {

engine::ScenarioSpec warm_spec(std::uint64_t seed, int nodes = 12,
                               double duration_s = 240.0) {
  engine::ScenarioSpec spec;
  spec.name = "warm-test";
  spec.backend = engine::Backend::kTabular;
  spec.policy = engine::PolicyRef("characterized");
  spec.node_count = nodes;
  spec.seed = seed;

  workload::PoissonScheduleConfig config;
  config.duration_s = duration_s;
  config.utilization = 0.85;
  config.cluster_nodes = nodes;
  spec.schedule = workload::generate_poisson_schedule(
      workload::nas_long_job_types(), config, util::Rng(seed).child("schedule"));
  spec.static_budget_w = 150.0 * nodes;
  return spec;
}

std::string fingerprint(const engine::RunResult& result) {
  return engine::sweep::run_result_to_cache_json(result).dump();
}

TEST(NodeTableReset, ResetEqualsFreshConstruction) {
  NodeTable used(16);
  // Dirty every column: per node, per lane and per row.
  used.set_idle_power_w(90.0);
  for (int n = 0; n < 16; ++n) used.set_perf_multiplier(n, n % 2 == 0 ? 0.9 : 1.1);
  for (int n = 0; n < 16; n += 2) {
    const std::size_t row = static_cast<std::size_t>(n / 2);
    used.start_row(row, n + 100, {n, n + 1});
    used.set_row_cap(row, 120.0);
    used.set_row_power(row, 115.0);
    used.draw_row_power(row, {n, n + 1});
    used.set_lane_rate(used.lane(n), 1.5);
  }
  used.advance_progress_batch(0, used.lane_end(), 1.0, 28);
  used.finish_row({2, 3});

  used.reset(16);
  const NodeTable fresh(16);
  ASSERT_EQ(used.size(), fresh.size());
  EXPECT_EQ(used.idle_count(), fresh.idle_count());
  EXPECT_EQ(used.lane_end(), fresh.lane_end());
  EXPECT_EQ(used.idle_nodes(), fresh.idle_nodes());
  for (int n = 0; n < 16; ++n) {
    EXPECT_EQ(used.job_id(n), fresh.job_id(n)) << n;
    EXPECT_EQ(used.lane(n), fresh.lane(n)) << n;
    EXPECT_EQ(used.power_source(n), fresh.power_source(n)) << n;
    EXPECT_EQ(used.starts_power_run(n), fresh.starts_power_run(n)) << n;
    EXPECT_EQ(used.cap_w(n), fresh.cap_w(n)) << n;
    EXPECT_EQ(used.power_w(n), fresh.power_w(n)) << n;
    EXPECT_EQ(used.progress(n), fresh.progress(n)) << n;
    EXPECT_EQ(used.perf_multiplier(n), fresh.perf_multiplier(n)) << n;
    EXPECT_EQ(used.inv_perf_multiplier(n), fresh.inv_perf_multiplier(n)) << n;
    EXPECT_EQ(used.rate(n), fresh.rate(n)) << n;
  }
  EXPECT_EQ(used.power_runs(), fresh.power_runs());
  EXPECT_EQ(used.total_power_w(), fresh.total_power_w());
  // The first lane and row handed out after a reset are the fresh table's.
  NodeTable fresh_copy(16);
  EXPECT_EQ(used.start_row(0, 1, {5}), fresh_copy.start_row(0, 1, {5}));
}

TEST(NodeTableReset, ResetCanResize) {
  NodeTable table(8);
  table.reset(20);
  EXPECT_EQ(table.size(), 20);
  EXPECT_EQ(table.idle_count(), 20);
  table.reset(4);
  EXPECT_EQ(table.size(), 4);
  EXPECT_EQ(table.idle_count(), 4);
  EXPECT_THROW(table.reset(0), std::invalid_argument);
}

TEST(WarmStart, WarmRunIsBitIdenticalToCold) {
  const engine::ScenarioSpec spec = warm_spec(3);
  const engine::RunResult cold = engine::run_scenario(spec);

  WarmStart warm;
  const engine::RunResult first = engine::run_scenario_warm(spec, warm);
  EXPECT_EQ(fingerprint(first), fingerprint(cold));
  // The pool now holds used state; the next warm run must still match.
  const engine::RunResult second = engine::run_scenario_warm(spec, warm);
  EXPECT_EQ(fingerprint(second), fingerprint(cold));
  EXPECT_NE(warm.nodes, nullptr) << "recycle must return the table to the pool";
}

TEST(WarmStart, ReuseAcrossDifferentSpecsCannotLeakState) {
  // Interleave three different scenarios through ONE warm pool and check
  // each against its own cold run: nothing from run N may bleed into N+1.
  const engine::ScenarioSpec a = warm_spec(3);
  const engine::ScenarioSpec b = warm_spec(9, 16, 300.0);  // resize + new jobs
  const engine::ScenarioSpec c = warm_spec(4, 6);          // shrink
  const std::string cold_a = fingerprint(engine::run_scenario(a));
  const std::string cold_b = fingerprint(engine::run_scenario(b));
  const std::string cold_c = fingerprint(engine::run_scenario(c));

  WarmStart warm;
  EXPECT_EQ(fingerprint(engine::run_scenario_warm(a, warm)), cold_a);
  EXPECT_EQ(fingerprint(engine::run_scenario_warm(b, warm)), cold_b);
  EXPECT_EQ(fingerprint(engine::run_scenario_warm(c, warm)), cold_c);
  EXPECT_EQ(fingerprint(engine::run_scenario_warm(a, warm)), cold_a);
}

TEST(WarmStart, PerfVariationColumnIsPooledWithoutChangingResults) {
  // With perf_variation_sigma > 0 the first warm run records the drawn
  // multiplier column; later same-(seed, sigma, nodes) runs replay it.
  engine::ScenarioSpec spec = warm_spec(3);
  spec.perf_variation_sigma = 0.08;
  const std::string cold = fingerprint(engine::run_scenario(spec));

  WarmStart warm;
  EXPECT_EQ(fingerprint(engine::run_scenario_warm(spec, warm)), cold);
  EXPECT_EQ(warm.perf_multipliers.size(), static_cast<std::size_t>(spec.node_count));
  EXPECT_EQ(warm.perf_sigma, spec.perf_variation_sigma);
  // Replayed column: still bit-identical.
  EXPECT_EQ(fingerprint(engine::run_scenario_warm(spec, warm)), cold);

  // A different sigma, seed, or node count must invalidate the pooled
  // column, not replay it.
  engine::ScenarioSpec wider = spec;
  wider.perf_variation_sigma = 0.2;
  const std::string cold_wider = fingerprint(engine::run_scenario(wider));
  EXPECT_NE(cold_wider, cold);
  EXPECT_EQ(fingerprint(engine::run_scenario_warm(wider, warm)), cold_wider);

  const engine::ScenarioSpec reseeded = [&] {
    engine::ScenarioSpec s = warm_spec(11);
    s.perf_variation_sigma = 0.2;
    return s;
  }();
  const std::string cold_reseeded = fingerprint(engine::run_scenario(reseeded));
  EXPECT_EQ(fingerprint(engine::run_scenario_warm(reseeded, warm)), cold_reseeded);
  // And back to the original: the pool re-draws, never serves stale rows.
  EXPECT_EQ(fingerprint(engine::run_scenario_warm(spec, warm)), cold);
}

TEST(WarmStart, ModelTablesAreReusedOnlyForIdenticalJobTypes) {
  const engine::ScenarioSpec spec = warm_spec(3);
  WarmStart warm;
  (void)engine::run_scenario_warm(spec, warm);
  ASSERT_FALSE(warm.job_types.empty());
  const std::size_t models = warm.type_models.size();
  EXPECT_EQ(models, warm.job_types.size());

  // Same spec again: the recorded job-type set stays (reuse path).
  (void)engine::run_scenario_warm(spec, warm);
  EXPECT_EQ(warm.type_models.size(), models);
  EXPECT_EQ(warm.job_types, warm.job_types);

  // SimJobType equality is the reuse gate.
  SimJobType x = warm.job_types.front();
  SimJobType y = x;
  EXPECT_TRUE(x == y);
  y.p_max_w += 1.0;
  EXPECT_TRUE(x != y);
}

TEST(WarmStart, EmulatedBackendFallsBackToColdPath) {
  engine::ScenarioSpec spec = warm_spec(3, 8, 180.0);
  spec.backend = engine::Backend::kEmulated;
  const std::string cold = fingerprint(engine::run_scenario(spec));
  WarmStart warm;
  EXPECT_EQ(fingerprint(engine::run_scenario_warm(spec, warm)), cold);
  EXPECT_EQ(warm.nodes, nullptr) << "emulated runs must not touch the pool";
}

}  // namespace
}  // namespace anor::sim
