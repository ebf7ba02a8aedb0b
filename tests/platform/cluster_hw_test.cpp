#include "platform/cluster_hw.hpp"

#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace anor::platform {
namespace {

TEST(ClusterHw, BuildsRequestedNodeCount) {
  ClusterHwConfig config;
  config.node_count = 16;
  ClusterHw hw(config, util::Rng(1));
  EXPECT_EQ(hw.node_count(), 16);
  EXPECT_DOUBLE_EQ(hw.min_cap_w(), 16 * 140.0);
  EXPECT_DOUBLE_EQ(hw.max_cap_w(), 16 * 280.0);
}

TEST(ClusterHw, NoVariationMeansUnitMultipliers) {
  ClusterHwConfig config;
  config.node_count = 8;
  config.perf_variation_sigma = 0.0;
  ClusterHw hw(config, util::Rng(1));
  for (int n = 0; n < hw.node_count(); ++n) {
    EXPECT_DOUBLE_EQ(hw.node(n).perf_multiplier(), 1.0);
  }
}

TEST(ClusterHw, VariationDrawsDistinctBoundedMultipliers) {
  ClusterHwConfig config;
  config.node_count = 200;
  config.perf_variation_sigma = 0.1;
  ClusterHw hw(config, util::Rng(7));
  util::RunningStats stats;
  for (int n = 0; n < hw.node_count(); ++n) {
    const double m = hw.node(n).perf_multiplier();
    EXPECT_GE(m, 0.5);
    EXPECT_LE(m, 1.5);
    stats.add(m);
  }
  EXPECT_NEAR(stats.mean(), 1.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 0.1, 0.03);
}

TEST(ClusterHw, VariationIsSeedDeterministic) {
  ClusterHwConfig config;
  config.node_count = 10;
  config.perf_variation_sigma = 0.15;
  ClusterHw a(config, util::Rng(3));
  ClusterHw b(config, util::Rng(3));
  for (int n = 0; n < 10; ++n) {
    EXPECT_DOUBLE_EQ(a.node(n).perf_multiplier(), b.node(n).perf_multiplier());
  }
}

TEST(ClusterHw, TotalPowerSumsNodes) {
  ClusterHwConfig config;
  config.node_count = 4;
  config.node.package.response_tau_s = 0.0;
  ClusterHw hw(config, util::Rng(1));
  hw.step(1.0);
  EXPECT_NEAR(hw.total_power_w(), 4 * 2 * config.node.package.idle_power_w, 1e-6);
}

TEST(ClusterHw, IdleNodesListsUnloaded) {
  ClusterHwConfig config;
  config.node_count = 3;
  ClusterHw hw(config, util::Rng(1));
  EXPECT_EQ(hw.idle_nodes().size(), 3u);
}

TEST(SigmaFromBand99, InvertsTheQuantile) {
  EXPECT_DOUBLE_EQ(sigma_from_band99(0.0), 0.0);
  EXPECT_NEAR(sigma_from_band99(0.15), 0.15 / 2.5758293035489004, 1e-12);
  // 99 % of N(0, sigma) lies within 2.576 sigma: inverse relationship.
  EXPECT_NEAR(sigma_from_band99(0.30) * 2.5758293035489004, 0.30, 1e-12);
}

}  // namespace
}  // namespace anor::platform
