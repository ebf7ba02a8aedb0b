// run_scenario on the emulated backend: how a spec's power objective
// reaches the cluster (none, a static budget as a constant target
// series, or both rejected), with advanced knobs passed as the
// EmulationConfig base.
#include <gtest/gtest.h>

#include "engine/runner.hpp"
#include "util/error.hpp"

namespace anor::engine {
namespace {

workload::Schedule tiny_schedule() {
  workload::Schedule schedule;
  workload::JobRequest request;
  request.job_id = 0;
  request.type_name = "is.D.x";
  request.submit_time_s = 0.0;
  request.nodes = 1;
  schedule.jobs.push_back(request);
  schedule.duration_s = 1.0;
  return schedule;
}

/// Noise-free knobs for a two-node run that admits without a power check.
cluster::EmulationConfig quiet_base() {
  cluster::EmulationConfig base;
  base.controller.kernel.time_noise_sigma = 0.0;
  base.scheduler.power_aware_admission = false;
  return base;
}

TEST(Experiment, RejectsBothBudgetAndTargets) {
  ScenarioSpec spec;
  spec.schedule = tiny_schedule();
  spec.static_budget_w = 1000.0;
  spec.targets.add(0.0, 1000.0);
  EXPECT_THROW(make_emulated_cluster(spec), util::ConfigError);
}

TEST(Experiment, RunsUnconstrained) {
  ScenarioSpec spec;
  spec.schedule = tiny_schedule();
  spec.node_count = 2;
  const RunResult result = run_scenario(spec, quiet_base());
  ASSERT_EQ(result.completed.size(), 1u);
  EXPECT_TRUE(result.target_w.empty());
}

TEST(Experiment, StaticBudgetBecomesConstantTargetSeries) {
  ScenarioSpec spec;
  spec.schedule = tiny_schedule();
  spec.node_count = 2;
  spec.static_budget_w = 2 * 160.0;
  const RunResult result = run_scenario(spec, quiet_base());
  ASSERT_FALSE(result.target_w.empty());
  // Both backends get the budget as one sample, held at every t.
  for (const double target : result.target_w.values()) EXPECT_EQ(target, 320.0);
  const sim::SimConfig tabular = make_sim_config(spec);
  ASSERT_EQ(tabular.power_targets.size(), 1u);
  EXPECT_EQ(tabular.power_targets.sample_at(-1.0), 320.0);
  EXPECT_EQ(tabular.power_targets.sample_at(1e9), 320.0);
}

}  // namespace
}  // namespace anor::engine
