#include "cluster/emulation.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "budget/one_cap_short_budgeter.hpp"
#include "util/error.hpp"

namespace anor::cluster {
namespace {

EmulationConfig fast_config() {
  EmulationConfig config;
  config.node_count = 4;
  config.node.package.response_tau_s = 0.0;
  config.step_s = 0.25;
  config.controller.kernel.time_noise_sigma = 0.0;
  config.controller.kernel.power_noise_sigma_w = 0.0;
  config.controller.kernel.setup_s = 1.0;
  config.controller.kernel.teardown_s = 1.0;
  config.scheduler.power_aware_admission = false;
  return config;
}

workload::Schedule schedule_of(std::vector<std::pair<const char*, double>> jobs) {
  workload::Schedule schedule;
  int id = 0;
  for (const auto& [type, submit] : jobs) {
    workload::JobRequest request;
    request.job_id = id++;
    request.type_name = type;
    request.submit_time_s = submit;
    request.nodes = workload::find_job_type(type).nodes;
    schedule.jobs.push_back(request);
    schedule.duration_s = std::max(schedule.duration_s, submit);
  }
  return schedule;
}

workload::JobType small_bt() {
  workload::JobType type = workload::find_job_type("bt.D.x");
  return type;
}

TEST(EmulatedCluster, SingleJobRunsUncappedAtExpectedRuntime) {
  EmulationConfig config = fast_config();
  // Shrink BT so the test is fast: 20 epochs x 0.9 s = 18 s compute.
  workload::Schedule schedule = schedule_of({{"is.D.x", 0.0}});
  EmulatedCluster emu(config, schedule);
  const EmulationResult result = emu.run();
  ASSERT_EQ(result.completed.size(), 1u);
  const CompletedJob& job = result.completed[0];
  const double expected = uncapped_runtime_s(workload::find_job_type("is.D.x"),
                                             config.controller.kernel);
  EXPECT_NEAR(job.end_s - job.start_s, expected, 2.0);
  EXPECT_LT(std::abs(job.slowdown()), 0.1);
  EXPECT_EQ(job.report.epoch_count, workload::find_job_type("is.D.x").epochs);
}

TEST(EmulatedCluster, RunHandsItsResultOverOnce) {
  EmulatedCluster emu(fast_config(), schedule_of({{"is.D.x", 0.0}}));
  while (emu.step()) {
  }
  // run() after stepping to the end finalizes and hands the result over.
  const EmulationResult result = emu.run();
  EXPECT_EQ(result.jobs_completed, 1);
  ASSERT_EQ(result.completed.size(), 1u);
  EXPECT_THROW(emu.run(), std::logic_error);
}

TEST(EmulatedCluster, ShortCapVectorFailsLoudlyNamingTheBudgeter) {
  EmulationConfig config = fast_config();
  config.manager.budgeter_factory = [] { return std::make_unique<budget::OneCapShortBudgeter>(); };
  EmulatedCluster emu(config, schedule_of({{"is.D.x", 0.0}}));
  util::TimeSeries targets;
  targets.add(0.0, config.node_count * 150.0);
  emu.set_power_targets(targets);
  try {
    emu.run();
    FAIL() << "a short cap vector must not be indexed";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'one-cap-short' returned 0 caps for 1 jobs"),
              std::string::npos)
        << e.what();
  }
}

TEST(EmulatedCluster, StaticBudgetSlowsSensitiveJob) {
  EmulationConfig config = fast_config();
  workload::Schedule schedule = schedule_of({{"bt.D.x", 0.0}});
  EmulatedCluster capped(config, schedule);
  util::TimeSeries targets;
  // 2 busy nodes at the floor + 2 idle nodes: a deep budget.
  targets.add(0.0, 2 * 140.0 + 2 * config.manager.idle_node_power_w);
  capped.set_power_targets(std::move(targets));
  const EmulationResult result = capped.run();
  ASSERT_EQ(result.completed.size(), 1u);
  // BT at the floor cap runs ~1.7x slower.
  EXPECT_GT(result.completed[0].slowdown(), 0.4);
}

TEST(EmulatedCluster, QueuedJobWaitsForNodes) {
  EmulationConfig config = fast_config();  // 4 nodes
  // Two 2-node jobs + a third: the third must wait.
  workload::Schedule schedule =
      schedule_of({{"bt.D.x", 0.0}, {"sp.D.x", 0.0}, {"lu.D.x", 1.0}});
  EmulatedCluster emu(config, schedule);
  const EmulationResult result = emu.run();
  ASSERT_EQ(result.completed.size(), 3u);
  double lu_start = 0.0;
  double first_end = 1e9;
  for (const auto& job : result.completed) {
    if (job.request.type_name == "lu.D.x") lu_start = job.start_s;
    else first_end = std::min(first_end, job.end_s);
  }
  EXPECT_GE(lu_start, first_end - 1.0);
}

TEST(EmulatedCluster, PowerSeriesTracksTarget) {
  EmulationConfig config = fast_config();
  config.node_count = 4;
  workload::Schedule schedule =
      schedule_of({{"bt.D.x", 0.0}, {"lu.D.x", 0.0}});
  EmulatedCluster emu(config, schedule);
  util::TimeSeries targets;
  const double target = 4 * 200.0;  // mid-range for 4 busy nodes
  targets.add(0.0, target);
  emu.set_power_targets(std::move(targets));
  const EmulationResult result = emu.run();
  // Once jobs are running (say after 10 s), measured power approaches the
  // target (both jobs draw up to their caps).
  double late_power = 0.0;
  int late_samples = 0;
  for (std::size_t i = 0; i < result.power_w.size(); ++i) {
    if (result.power_w.times()[i] > 10.0 && result.power_w.times()[i] < 60.0) {
      late_power += result.power_w.values()[i];
      ++late_samples;
    }
  }
  ASSERT_GT(late_samples, 0);
  late_power /= late_samples;
  EXPECT_NEAR(late_power, target, target * 0.15);
}

TEST(EmulatedCluster, DeterministicPerSeed) {
  EmulationConfig config = fast_config();
  workload::Schedule schedule = schedule_of({{"cg.D.x", 0.0}, {"mg.D.x", 5.0}});
  EmulatedCluster a(config, schedule);
  EmulatedCluster b(config, schedule);
  const EmulationResult ra = a.run();
  const EmulationResult rb = b.run();
  ASSERT_EQ(ra.completed.size(), rb.completed.size());
  for (std::size_t i = 0; i < ra.completed.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.completed[i].end_s, rb.completed[i].end_s);
  }
}

TEST(EmulatedCluster, PerfVariationChangesRuntimes) {
  EmulationConfig config = fast_config();
  config.perf_variation_sigma = 0.2;
  workload::Schedule schedule = schedule_of({{"cg.D.x", 0.0}});
  EmulatedCluster emu(config, schedule);
  const EmulationResult result = emu.run();
  ASSERT_EQ(result.completed.size(), 1u);
  const double nominal = uncapped_runtime_s(workload::find_job_type("cg.D.x"),
                                            config.controller.kernel);
  EXPECT_GT(std::abs((result.completed[0].end_s - result.completed[0].start_s) - nominal),
            0.5);
}

TEST(EmulatedCluster, SlowdownByTypeAggregates) {
  EmulationConfig config = fast_config();
  workload::Schedule schedule =
      schedule_of({{"is.D.x", 0.0}, {"is.D.x", 0.0}, {"cg.D.x", 0.0}});
  EmulatedCluster emu(config, schedule);
  const EmulationResult result = emu.run();
  const auto by_type = result.slowdown_by_type();
  EXPECT_EQ(by_type.at("is.D.x").count(), 2u);
  EXPECT_EQ(by_type.at("cg.D.x").count(), 1u);
}

TEST(EmulatedCluster, QosRecordsIncludeQueueTime) {
  EmulationConfig config = fast_config();
  config.node_count = 1;
  workload::Schedule schedule = schedule_of({{"cg.D.x", 0.0}, {"cg.D.x", 0.0}});
  EmulatedCluster emu(config, schedule);
  const EmulationResult result = emu.run();
  ASSERT_EQ(result.qos.records().size(), 2u);
  // Second job waited for the first: its Q reflects the queue delay.
  double max_q = 0.0;
  for (const auto& r : result.qos.records()) max_q = std::max(max_q, r.qos_degradation());
  EXPECT_GT(max_q, 0.5);
}

TEST(EmulatedCluster, BalancerAgentHelpsUnderNodeVariation) {
  // Same seeded cluster with node-to-node variation; the power_balancer
  // agent shifts watts toward each job's lagging nodes and should not be
  // slower than the governor on any multi-node job.
  const auto run = [](geopm::AgentKind agent) {
    EmulationConfig config = fast_config();
    config.node_count = 8;
    config.perf_variation_sigma = 0.15;
    config.seed = 17;
    config.controller.agent = agent;
    config.controller.tree_fanout = 8;
    workload::Schedule schedule;
    workload::JobRequest job;
    job.job_id = 0;
    job.type_name = "lu.D.x";
    job.submit_time_s = 0.0;
    job.nodes = 8;  // one wide job across the varied nodes
    schedule.jobs.push_back(job);
    EmulatedCluster emu(config, schedule);
    util::TimeSeries targets;
    targets.add(0.0, 8 * 200.0);
    emu.set_power_targets(std::move(targets));
    const auto result = emu.run();
    return result.completed.at(0).end_s - result.completed.at(0).start_s;
  };
  const double governor_s = run(geopm::AgentKind::kPowerGovernor);
  const double balancer_s = run(geopm::AgentKind::kPowerBalancer);
  EXPECT_LT(balancer_s, governor_s * 1.001)
      << "governor=" << governor_s << " balancer=" << balancer_s;
}

TEST(UncappedRuntime, AddsSetupAndTeardown) {
  workload::KernelConfig kernel;
  kernel.setup_s = 2.0;
  kernel.teardown_s = 1.0;
  kernel.perf_multiplier = 1.0;
  const auto& is = workload::find_job_type("is.D.x");
  EXPECT_DOUBLE_EQ(uncapped_runtime_s(is, kernel), is.min_exec_time_s() + 3.0);
}

}  // namespace
}  // namespace anor::cluster
