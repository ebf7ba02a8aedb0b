#include "geopm/controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "geopm/signals.hpp"

namespace anor::geopm {
namespace {

struct ControllerTest : ::testing::Test {
  ControllerTest() {
    platform::NodeConfig config;
    config.package.response_tau_s = 0.0;
    for (int i = 0; i < 4; ++i) nodes.push_back(std::make_unique<platform::Node>(i, config));

    type = workload::find_job_type("bt.D.x");
    type.epochs = 20;
    type.base_epoch_s = 1.0;

    controller_config.control_period_s = 0.5;
    controller_config.kernel.time_noise_sigma = 0.0;
    controller_config.kernel.power_noise_sigma_w = 0.0;
    controller_config.kernel.setup_s = 0.0;
    controller_config.kernel.teardown_s = 0.0;
  }

  std::vector<platform::Node*> node_ptrs(int count) {
    std::vector<platform::Node*> ptrs;
    for (int i = 0; i < count; ++i) ptrs.push_back(nodes[static_cast<std::size_t>(i)].get());
    return ptrs;
  }

  /// Advance hardware and run the job's control loop for `seconds`.
  void run_for(JobController& controller, double seconds, double dt = 0.25) {
    for (double t = 0.0; t < seconds; t += dt) {
      clock.advance(dt);
      for (auto& n : nodes) n->step(dt);
      controller.control_step(clock.now());
    }
  }

  util::VirtualClock clock;
  std::vector<std::unique_ptr<platform::Node>> nodes;
  workload::JobType type;
  ControllerConfig controller_config;
};

TEST_F(ControllerTest, ConstructionValidation) {
  EXPECT_THROW(JobController("j", type, {}, clock, util::Rng(1)), std::invalid_argument);
  EXPECT_THROW(JobController("j", type, {nullptr}, clock, util::Rng(1)),
               std::invalid_argument);
  JobController first("j1", type, node_ptrs(2), clock, util::Rng(1), controller_config);
  // Nodes are now busy; a second controller must refuse them.
  EXPECT_THROW(JobController("j2", type, node_ptrs(2), clock, util::Rng(1)),
               std::invalid_argument);
}

TEST_F(ControllerTest, StartsUncapped) {
  JobController controller("j", type, node_ptrs(2), clock, util::Rng(1), controller_config);
  EXPECT_DOUBLE_EQ(controller.current_cap_w(), 280.0);
  for (int i = 0; i < 2; ++i) EXPECT_DOUBLE_EQ(nodes[i]->effective_cap_w(), 280.0);
}

TEST_F(ControllerTest, EndpointPolicyPropagatesToAllNodes) {
  JobController controller("j", type, node_ptrs(3), clock, util::Rng(1), controller_config);
  controller.endpoint().write_policy(clock.now(), {190.0});
  run_for(controller, 1.0);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(nodes[i]->effective_cap_w(), 190.0);
  EXPECT_DOUBLE_EQ(controller.current_cap_w(), 190.0);
}

TEST_F(ControllerTest, SamplesFlowToEndpoint) {
  JobController controller("j", type, node_ptrs(2), clock, util::Rng(1), controller_config);
  run_for(controller, 3.0);
  std::vector<TimedSample> samples;
  controller.endpoint().read_samples(samples);
  ASSERT_FALSE(samples.empty());
  const auto& last = samples.back().sample;
  ASSERT_EQ(last.size(), static_cast<std::size_t>(kSampleSize));
  // Two busy nodes: power is hundreds of watts, epochs are advancing.
  EXPECT_GT(last[kSamplePower], 200.0);
  EXPECT_GT(last[kSampleEpochCount], 0.0);
}

TEST_F(ControllerTest, GlobalEpochIsMinAcrossNodes) {
  // Slow down node 1 so its local epochs lag.
  nodes[1]->set_perf_multiplier(2.0);
  JobController controller("j", type, node_ptrs(2), clock, util::Rng(1), controller_config);
  run_for(controller, 6.0);
  // Node 0 should have ~6 local epochs, node 1 ~3; global epoch = min.
  EXPECT_LE(controller.epoch_count(), 3);
  EXPECT_GT(controller.epoch_count(), 0);
}

TEST_F(ControllerTest, CompletesAndTearsDown) {
  JobController controller("j", type, node_ptrs(2), clock, util::Rng(1), controller_config);
  run_for(controller, 25.0);
  EXPECT_TRUE(controller.complete());
  controller.teardown(clock.now());
  for (int i = 0; i < 2; ++i) EXPECT_FALSE(nodes[i]->busy());
  const JobReport report = controller.report();
  EXPECT_EQ(report.epoch_count, 20);
  EXPECT_NEAR(report.runtime_s, 25.0, 1.0);
  EXPECT_GT(report.package_energy_j, 0.0);
  EXPECT_GT(report.average_power_w, 0.0);
}

TEST_F(ControllerTest, ReportAverageCapIsTimeWeighted) {
  JobController controller("j", type, node_ptrs(1), clock, util::Rng(1), controller_config);
  run_for(controller, 5.0);  // 5 s at 280
  controller.endpoint().write_policy(clock.now(), {180.0});
  run_for(controller, 5.0);  // ~5 s at 180
  controller.teardown(clock.now());
  const JobReport report = controller.report();
  EXPECT_GT(report.average_cap_w, 180.0);
  EXPECT_LT(report.average_cap_w, 280.0);
  EXPECT_NEAR(report.average_cap_w, 230.0, 15.0);
}

TEST_F(ControllerTest, ControlStepHonorsPeriod) {
  JobController controller("j", type, node_ptrs(1), clock, util::Rng(1), controller_config);
  // Two immediate calls at the same instant: only one sample emitted.
  clock.advance(0.1);
  controller.control_step(clock.now());
  controller.control_step(clock.now());
  std::vector<TimedSample> samples;
  EXPECT_EQ(controller.endpoint().read_samples(samples), 1u);
}

TEST_F(ControllerTest, TraceRecordsControlLoopRows) {
  ControllerConfig config = controller_config;
  config.trace_enabled = true;
  JobController controller("j", type, node_ptrs(2), clock, util::Rng(1), config);
  controller.endpoint().write_policy(clock.now(), {200.0});
  run_for(controller, 5.0);
  const auto& trace = controller.trace();
  ASSERT_GE(trace.size(), 8u);  // 0.5 s period over 5 s
  double prev_t = -1.0;
  long prev_epochs = -1;
  double prev_energy = -1.0;
  for (const TraceRow& row : trace) {
    EXPECT_GT(row.t_s, prev_t);
    EXPECT_GE(row.epoch_count, prev_epochs);
    EXPECT_GE(row.energy_j, prev_energy);
    prev_t = row.t_s;
    prev_epochs = row.epoch_count;
    prev_energy = row.energy_j;
  }
  // After the policy applied, the cap column reflects it.
  EXPECT_DOUBLE_EQ(trace.back().cap_w, 200.0);
  // Two busy nodes: power in the hundreds.
  EXPECT_GT(trace.back().power_w, 200.0);

  std::ostringstream csv;
  controller.write_trace_csv(csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("t_s,power_w,energy_j,cap_w,epoch_count"), std::string::npos);
  EXPECT_GT(std::count(text.begin(), text.end(), '\n'), 8);
}

TEST_F(ControllerTest, TraceDisabledByDefault) {
  JobController controller("j", type, node_ptrs(1), clock, util::Rng(1), controller_config);
  run_for(controller, 2.0);
  EXPECT_TRUE(controller.trace().empty());
}

TEST_F(ControllerTest, CappedJobRunsSlower) {
  JobController capped("j1", type, node_ptrs(1), clock, util::Rng(1), controller_config);
  capped.endpoint().write_policy(clock.now(), {140.0});
  run_for(capped, 20.0);
  // At the floor cap BT runs 1.7x slower: 20 epochs need 34 s.
  EXPECT_FALSE(capped.complete());
  run_for(capped, 15.0);
  EXPECT_TRUE(capped.complete());
}

}  // namespace
}  // namespace anor::geopm
