#include "workload/regulation.hpp"

#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace anor::workload {
namespace {

TEST(RandomWalk, StaysInBounds) {
  RandomWalkRegulation reg(util::Rng(3), 3600.0, 4.0, 0.3);
  for (double t = 0.0; t <= 3600.0; t += 1.0) {
    const double y = reg.at(t);
    EXPECT_GE(y, -1.0);
    EXPECT_LE(y, 1.0);
  }
}

TEST(RandomWalk, PiecewiseConstantOverStep) {
  RandomWalkRegulation reg(util::Rng(3), 100.0, 4.0);
  EXPECT_DOUBLE_EQ(reg.at(8.0), reg.at(9.5));
  EXPECT_DOUBLE_EQ(reg.at(8.0), reg.at(11.99));
}

TEST(RandomWalk, DeterministicPerSeed) {
  RandomWalkRegulation a(util::Rng(9), 100.0);
  RandomWalkRegulation b(util::Rng(9), 100.0);
  RandomWalkRegulation c(util::Rng(10), 100.0);
  bool differs = false;
  for (double t = 0.0; t < 100.0; t += 4.0) {
    EXPECT_DOUBLE_EQ(a.at(t), b.at(t));
    differs |= a.at(t) != c.at(t);
  }
  EXPECT_TRUE(differs);
}

TEST(RandomWalk, ActuallyMoves) {
  RandomWalkRegulation reg(util::Rng(4), 1000.0, 4.0, 0.2);
  util::RunningStats stats;
  for (double t = 0.0; t < 1000.0; t += 4.0) stats.add(reg.at(t));
  EXPECT_GT(stats.stddev(), 0.05);
}

TEST(RandomWalk, ClampsBeyondHorizonAndZero) {
  RandomWalkRegulation reg(util::Rng(5), 40.0, 4.0);
  EXPECT_DOUBLE_EQ(reg.at(-5.0), reg.at(0.0));
  EXPECT_NO_THROW(reg.at(1e6));
}

TEST(RandomWalk, RejectsBadParameters) {
  EXPECT_THROW(RandomWalkRegulation(util::Rng(1), 0.0), std::invalid_argument);
  EXPECT_THROW(RandomWalkRegulation(util::Rng(1), 10.0, 0.0), std::invalid_argument);
}

TEST(Sinusoid, PeriodAndBounds) {
  SinusoidRegulation reg(100.0);
  EXPECT_NEAR(reg.at(0.0), 0.0, 1e-12);
  EXPECT_NEAR(reg.at(25.0), 1.0, 1e-12);
  EXPECT_NEAR(reg.at(75.0), -1.0, 1e-12);
  EXPECT_THROW(SinusoidRegulation(0.0), std::invalid_argument);
}

TEST(Sinusoid, TwoToneStaysBounded) {
  SinusoidRegulation reg(100.0, 13.0, 0.5);
  for (double t = 0.0; t < 300.0; t += 0.7) {
    EXPECT_GE(reg.at(t), -1.0);
    EXPECT_LE(reg.at(t), 1.0);
  }
}

TEST(Bid, TargetFormula) {
  const DemandResponseBid bid{3400.0, 1100.0};
  SinusoidRegulation reg(100.0);
  EXPECT_NEAR(bid.target_at(reg, 25.0), 4500.0, 1e-9);
  EXPECT_NEAR(bid.target_at(reg, 75.0), 2300.0, 1e-9);
}

TEST(PowerTargetSeries, GridAndRange) {
  const DemandResponseBid bid{3400.0, 1100.0};
  RandomWalkRegulation reg(util::Rng(1), 3600.0, 4.0);
  const auto series = make_power_target_series(bid, reg, 3600.0, 4.0);
  EXPECT_EQ(series.size(), 901u);  // 0..3600 inclusive
  for (double v : series.values()) {
    EXPECT_GE(v, 2300.0 - 1e-9);
    EXPECT_LE(v, 4500.0 + 1e-9);
  }
  EXPECT_THROW(make_power_target_series(bid, reg, 100.0, 0.0), std::invalid_argument);
}

TEST(Fig9Targets, RangeMatchesCommittedFlexibility) {
  const auto bid = fig9_bid();
  const auto targets = fig9_targets(3);
  ASSERT_GT(targets.size(), 800u);  // one per 4 s over an hour
  for (double v : targets.values()) {
    EXPECT_GE(v, bid.average_power_w - bid.reserve_w - 1e-9);
    EXPECT_LE(v, bid.average_power_w + bid.reserve_w + 1e-9);
  }
  // Lower edge matches the paper's 2.3 kW floor; the ceiling reflects the
  // calibrated job types' achievable draw (see fig9_bid's comment).
  EXPECT_DOUBLE_EQ(bid.average_power_w - bid.reserve_w, 2300.0);
  EXPECT_GE(bid.average_power_w + bid.reserve_w, 4200.0);
}

TEST(Fig9Targets, SeedDeterminism) {
  const auto a = fig9_targets(3);
  const auto b = fig9_targets(3);
  const auto c = fig9_targets(4);
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.values()[i], b.values()[i]);
    differs |= a.values()[i] != c.values()[i];
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace anor::workload
