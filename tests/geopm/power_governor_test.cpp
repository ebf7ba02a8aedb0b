#include "geopm/power_governor.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace anor::geopm {
namespace {

struct PowerGovernorTest : ::testing::Test {
  PowerGovernorTest() : node(0, instant_node()), pio(node, clock), agent(pio) {}

  static platform::NodeConfig instant_node() {
    platform::NodeConfig config;
    config.package.response_tau_s = 0.0;
    return config;
  }

  util::VirtualClock clock;
  platform::Node node;
  PlatformIO pio;
  PowerGovernorAgent agent;
};

TEST_F(PowerGovernorTest, ValidatesPolicy) {
  EXPECT_THROW(agent.validate_policy({}), util::ConfigError);
  EXPECT_THROW(agent.validate_policy({0.0}), util::ConfigError);
  EXPECT_THROW(agent.validate_policy({-5.0}), util::ConfigError);
  EXPECT_NO_THROW(agent.validate_policy({200.0}));
}

TEST_F(PowerGovernorTest, AdjustAppliesCap) {
  agent.adjust_platform({200.0});
  EXPECT_DOUBLE_EQ(node.effective_cap_w(), 200.0);
  EXPECT_DOUBLE_EQ(agent.applied_cap_w(), 200.0);
}

TEST_F(PowerGovernorTest, AdjustClampedCapReported) {
  agent.adjust_platform({90.0});
  EXPECT_DOUBLE_EQ(agent.applied_cap_w(), 140.0);
}

TEST_F(PowerGovernorTest, RepeatedSameCapSkipsWrite) {
  agent.adjust_platform({200.0});
  node.set_power_cap(260.0);  // external perturbation
  agent.adjust_platform({200.0});  // same request: no rewrite
  EXPECT_DOUBLE_EQ(node.effective_cap_w(), 260.0);
  agent.adjust_platform({201.0});  // new request: written
  EXPECT_DOUBLE_EQ(node.effective_cap_w(), 201.0);
}

TEST_F(PowerGovernorTest, SampleHasAllFields) {
  clock.advance(1.0);
  const auto sample = agent.sample_platform();
  ASSERT_EQ(sample.size(), static_cast<std::size_t>(kSampleSize));
  EXPECT_GE(sample[kSamplePower], 0.0);
  EXPECT_GE(sample[kSampleEnergy], 0.0);
  EXPECT_DOUBLE_EQ(sample[kSampleEpochCount], 0.0);
  EXPECT_DOUBLE_EQ(sample[kSampleTimestamp], 1.0);
}

TEST_F(PowerGovernorTest, AggregationSumsPowerMinsEpochs) {
  const std::vector<Sample> samples = {
      {100.0, 1000.0, 7.0, 1.0, 1.0},
      {120.0, 1100.0, 5.0, 1.2, 2.0},
      {90.0, 900.0, 9.0, 0.9, 1.0},
  };
  const auto agg = agent.aggregate_samples(samples);
  EXPECT_DOUBLE_EQ(agg[kSamplePower], 310.0);
  EXPECT_DOUBLE_EQ(agg[kSampleEnergy], 3000.0);
  EXPECT_DOUBLE_EQ(agg[kSampleEpochCount], 5.0);  // min across nodes
  EXPECT_DOUBLE_EQ(agg[kSampleTimestamp], 1.2);   // newest
  EXPECT_DOUBLE_EQ(agg[kSampleNodeCount], 4.0);   // summed
}

TEST_F(PowerGovernorTest, AggregationOfNothingIsZeros) {
  const auto agg = agent.aggregate_samples({});
  EXPECT_DOUBLE_EQ(agg[kSamplePower], 0.0);
  EXPECT_DOUBLE_EQ(agg[kSampleEpochCount], 0.0);
}

TEST_F(PowerGovernorTest, DefaultSplitBroadcasts) {
  std::vector<Policy> split(3);
  agent.split_policy(Policy{222.0}, split);
  for (const auto& p : split) {
    ASSERT_EQ(p.size(), 1u);
    EXPECT_DOUBLE_EQ(p[0], 222.0);
  }
}

}  // namespace
}  // namespace anor::geopm
