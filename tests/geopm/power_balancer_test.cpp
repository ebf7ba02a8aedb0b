#include "geopm/power_balancer.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <vector>

#include "geopm/controller.hpp"
#include "geopm/signals.hpp"

namespace anor::geopm {
namespace {

Sample sample_of(double epochs, double nodes = 1.0) {
  Sample sample{};
  sample[kSampleEpochCount] = epochs;
  sample[kSampleNodeCount] = nodes;
  return sample;
}

void observe(Agent& agent, std::initializer_list<Sample> samples) {
  agent.observe_child_samples(std::span<const Sample>(samples.begin(), samples.size()));
}

/// The agent's split of a `cap` policy across `count` children.
std::vector<Policy> split_of(const Agent& agent, double cap, int count) {
  std::vector<Policy> split(static_cast<std::size_t>(count));
  agent.split_policy(Policy{cap}, split);
  return split;
}

struct BalancerTest : ::testing::Test {
  BalancerTest() : node(0, instant_node()), pio(node, clock), agent(pio, config()) {}

  static platform::NodeConfig instant_node() {
    platform::NodeConfig node_config;
    node_config.package.response_tau_s = 0.0;
    return node_config;
  }
  static BalancerConfig config() {
    BalancerConfig balancer;
    balancer.gain = 2.0;
    balancer.lag_smoothing = 1.0;  // no smoothing: assertions are exact
    return balancer;
  }

  util::VirtualClock clock;
  platform::Node node;
  PlatformIO pio;
  PowerBalancerAgent agent;
};

TEST_F(BalancerTest, NoObservationsBroadcasts) {
  const auto split = split_of(agent, 200.0, 3);
  ASSERT_EQ(split.size(), 3u);
  for (const auto& p : split) EXPECT_DOUBLE_EQ(p[kPolicyPowerCap], 200.0);
}

TEST_F(BalancerTest, LaggingChildGetsMorePower) {
  // Own sample + two children: child 0 behind (90 epochs), child 1 ahead
  // (110); mean 100.
  observe(agent, {sample_of(100), sample_of(90), sample_of(110)});
  const auto split = split_of(agent, 200.0, 2);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_GT(split[0][kPolicyPowerCap], 200.0);
  EXPECT_LT(split[1][kPolicyPowerCap], 200.0);
}

TEST_F(BalancerTest, SplitConservesSubtreePower) {
  observe(agent, {sample_of(100), sample_of(80), sample_of(120)});
  const auto split = split_of(agent, 200.0, 2);
  const double total = split[0][kPolicyPowerCap] + split[1][kPolicyPowerCap];
  EXPECT_NEAR(total, 2 * 200.0, 1.0);
}

TEST_F(BalancerTest, ConservationWeightsBySubtreeSize) {
  // Child 0 has 3 nodes, child 1 has 1 node.
  observe(agent, {sample_of(100), sample_of(90, 3.0), sample_of(130, 1.0)});
  const auto split = split_of(agent, 200.0, 2);
  const double total = 3.0 * split[0][kPolicyPowerCap] + 1.0 * split[1][kPolicyPowerCap];
  EXPECT_NEAR(total, 4.0 * 200.0, 2.0);
}

TEST_F(BalancerTest, CapsClampToPlatformRange) {
  // Massive lag: the shift must clamp into [140, 280].
  observe(agent, {sample_of(100), sample_of(1), sample_of(199)});
  const auto split = split_of(agent, 200.0, 2);
  for (const auto& p : split) {
    EXPECT_GE(p[kPolicyPowerCap], 140.0);
    EXPECT_LE(p[kPolicyPowerCap], 280.0);
  }
}

TEST_F(BalancerTest, EqualChildrenGetEqualCaps) {
  observe(agent, {sample_of(100), sample_of(100), sample_of(100)});
  const auto split = split_of(agent, 200.0, 2);
  EXPECT_DOUBLE_EQ(split[0][kPolicyPowerCap], split[1][kPolicyPowerCap]);
  EXPECT_DOUBLE_EQ(split[0][kPolicyPowerCap], 200.0);
}

TEST_F(BalancerTest, SmoothingDampsTheShift) {
  BalancerConfig smooth = config();
  smooth.lag_smoothing = 0.2;
  platform::Node node2(1, instant_node());
  PlatformIO pio2(node2, clock);
  PowerBalancerAgent damped(pio2, smooth);
  observe(damped, {sample_of(100), sample_of(80), sample_of(120)});
  observe(agent, {sample_of(100), sample_of(80), sample_of(120)});
  const double raw_shift =
      split_of(agent, 200.0, 2)[0][kPolicyPowerCap] - 200.0;
  const double damped_shift =
      split_of(damped, 200.0, 2)[0][kPolicyPowerCap] - 200.0;
  EXPECT_GT(raw_shift, damped_shift);
  EXPECT_GT(damped_shift, 0.0);
}

// End-to-end: under node-to-node variation, the balancer finishes a
// multi-node job sooner than the governor at the same job power budget.
TEST(BalancerEndToEnd, BeatsGovernorUnderNodeVariation) {
  const auto run = [](AgentKind kind) {
    util::VirtualClock clock;
    platform::NodeConfig node_config;
    node_config.package.response_tau_s = 0.0;
    std::vector<std::unique_ptr<platform::Node>> nodes;
    std::vector<platform::Node*> ptrs;
    const double multipliers[] = {0.9, 1.0, 1.1, 1.25};  // slow node last
    for (int i = 0; i < 4; ++i) {
      platform::NodeConfig c = node_config;
      c.perf_multiplier = multipliers[i];
      nodes.push_back(std::make_unique<platform::Node>(i, c));
      ptrs.push_back(nodes.back().get());
    }
    workload::JobType type = workload::find_job_type("bt.D.x");
    type.epochs = 60;
    ControllerConfig config;
    config.agent = kind;
    config.tree_fanout = 4;  // root + 3 children (tree depth 1)
    config.kernel.time_noise_sigma = 0.0;
    config.kernel.power_noise_sigma_w = 0.0;
    config.kernel.setup_s = 0.0;
    config.kernel.teardown_s = 0.0;
    JobController controller("balance-test", type, ptrs, clock, util::Rng(1), config);
    controller.endpoint().write_policy(0.0, {200.0});  // shared budget
    while (!controller.complete()) {
      clock.advance(0.25);
      for (auto& n : nodes) n->step(0.25);
      controller.control_step(clock.now());
      if (clock.now() > 3600.0) break;
    }
    controller.teardown(clock.now());
    return controller.report().runtime_s;
  };

  const double governor_s = run(AgentKind::kPowerGovernor);
  const double balancer_s = run(AgentKind::kPowerBalancer);
  EXPECT_LT(balancer_s, governor_s * 0.97)
      << "governor=" << governor_s << " balancer=" << balancer_s;
}

}  // namespace
}  // namespace anor::geopm
