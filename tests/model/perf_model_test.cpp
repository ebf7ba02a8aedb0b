#include "model/perf_model.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace anor::model {
namespace {

TEST(PowerPerfModel, DefaultIsValidFlat) {
  PowerPerfModel model;
  EXPECT_TRUE(model.valid());
  EXPECT_DOUBLE_EQ(model.slowdown_at(model.p_min_w()), 0.0);
}

TEST(PowerPerfModel, RejectsInvertedRange) {
  EXPECT_THROW(PowerPerfModel(0, 0, 1, 280.0, 140.0), util::ConfigError);
}

TEST(PowerPerfModel, FromJobTypeMatchesGroundTruth) {
  const auto& bt = workload::find_job_type("bt.D.x");
  const PowerPerfModel model = PowerPerfModel::from_job_type(bt);
  // Valid over the job's achievable power range [p_min, p_max]; outside
  // it the model clamps to the range endpoint.
  for (double cap = model.p_min_w(); cap <= model.p_max_w(); cap += 10.0) {
    EXPECT_NEAR(model.time_at(cap), bt.epoch_time_s(cap), 1e-6) << cap;
  }
  EXPECT_DOUBLE_EQ(model.time_at(280.0), model.time_at(model.p_max_w()));
  EXPECT_GT(model.r2(), 0.99999);
}

TEST(PowerPerfModel, SlowdownAtEndpoints) {
  const auto& ep = workload::find_job_type("ep.D.x");
  const PowerPerfModel model = PowerPerfModel::from_job_type(ep);
  EXPECT_NEAR(model.slowdown_at(model.p_max_w()), 0.0, 1e-9);
  // Slowdown is measured against the job's own max achievable power.
  const double expected =
      ep.relative_time(140.0) / ep.relative_time(model.p_max_w()) - 1.0;
  EXPECT_NEAR(model.slowdown_at(140.0), expected, 0.01);
}

TEST(PowerPerfModel, FitRecoversKnownQuadratic) {
  // T(P) = 2e-5 P^2 - 0.015 P + 4  (decreasing on [140, 280])
  std::vector<double> caps;
  std::vector<double> times;
  for (double p = 140.0; p <= 280.0; p += 20.0) {
    caps.push_back(p);
    times.push_back(2e-5 * p * p - 0.015 * p + 4.0);
  }
  const PowerPerfModel model = PowerPerfModel::fit(caps, times, 140.0, 280.0);
  EXPECT_NEAR(model.a(), 2e-5, 1e-9);
  EXPECT_NEAR(model.b(), -0.015, 1e-7);
  EXPECT_NEAR(model.c(), 4.0, 1e-5);
  EXPECT_NEAR(model.r2(), 1.0, 1e-9);
}

TEST(PowerPerfModel, FitRequiresThreeDistinctCaps) {
  const std::vector<double> two_caps = {140.0, 140.0, 280.0, 280.0};
  const std::vector<double> times = {2.0, 2.0, 1.0, 1.0};
  EXPECT_THROW(PowerPerfModel::fit(two_caps, times, 140.0, 280.0), util::NumericalError);
  EXPECT_THROW(PowerPerfModel::fit(std::vector<double>{1, 2}, std::vector<double>{1, 2},
                                   140.0, 280.0),
               util::NumericalError);
  EXPECT_THROW(PowerPerfModel::fit(std::vector<double>{1, 2, 3}, std::vector<double>{1, 2},
                                   140.0, 280.0),
               util::NumericalError);
}

TEST(PowerPerfModel, FitWithNoiseHasReasonableR2) {
  const auto& sp = workload::find_job_type("sp.D.x");
  util::Rng rng(5);
  std::vector<double> caps;
  std::vector<double> times;
  for (int i = 0; i < 60; ++i) {
    const double cap = rng.uniform(140.0, 280.0);
    caps.push_back(cap);
    times.push_back(sp.epoch_time_s(cap) * rng.normal(1.0, 0.02));
  }
  const PowerPerfModel model = PowerPerfModel::fit(caps, times, 140.0, 280.0);
  EXPECT_GT(model.r2(), 0.7);
  EXPECT_NEAR(model.time_at(200.0), sp.epoch_time_s(200.0), 0.05);
}

TEST(PowerPerfModel, TimeAtClampsAndNeverPredictsSpeedup) {
  const PowerPerfModel model =
      PowerPerfModel::from_job_type(workload::find_job_type("lu.D.x"));
  EXPECT_DOUBLE_EQ(model.time_at(50.0), model.time_at(model.p_min_w()));
  EXPECT_DOUBLE_EQ(model.time_at(1000.0), model.time_at(model.p_max_w()));
  for (double cap = 100.0; cap <= 400.0; cap += 25.0) {
    EXPECT_GE(model.time_at(cap), model.time_at(model.p_max_w()) - 1e-12);
  }
}

TEST(PowerPerfModel, CapForTimeInvertsTimeAt) {
  const PowerPerfModel model =
      PowerPerfModel::from_job_type(workload::find_job_type("ft.D.x"));
  for (double cap = model.p_min_w(); cap <= model.p_max_w(); cap += 10.0) {
    const double t = model.time_at(cap);
    EXPECT_NEAR(model.cap_for_time(t), cap, 0.1) << cap;
  }
}

TEST(PowerPerfModel, CapForTimeSaturates) {
  const PowerPerfModel model =
      PowerPerfModel::from_job_type(workload::find_job_type("ft.D.x"));
  EXPECT_DOUBLE_EQ(model.cap_for_time(0.0), model.p_max_w());
  EXPECT_DOUBLE_EQ(model.cap_for_time(1e9), model.p_min_w());
}

TEST(PowerPerfModel, CapForSlowdownRoundTrips) {
  const PowerPerfModel model =
      PowerPerfModel::from_job_type(workload::find_job_type("bt.D.x"));
  for (double s = 0.0; s <= model.max_slowdown(); s += 0.1) {
    const double cap = model.cap_for_slowdown(s);
    EXPECT_NEAR(model.slowdown_at(cap), s, 0.01) << s;
  }
}

TEST(PowerPerfModel, CapForSlowdownBeyondMaxPinsToFloor) {
  const PowerPerfModel model =
      PowerPerfModel::from_job_type(workload::find_job_type("is.D.x"));
  // IS maxes out around 12 % slowdown; asking for 50 % pins to p_min.
  EXPECT_DOUBLE_EQ(model.cap_for_slowdown(0.5), model.p_min_w());
}

TEST(PowerPerfModel, DescribeMentionsCoefficients) {
  const PowerPerfModel model(1e-5, -0.01, 3.0, 140.0, 280.0);
  const std::string text = model.describe();
  EXPECT_NE(text.find("T(P)"), std::string::npos);
  EXPECT_NE(text.find("R2"), std::string::npos);
}

// Property sweep: inverse consistency for every registered type.  The
// parameter is the type name rather than the JobType: gtest prints a struct
// without operator<< as its raw bytes, which would put a heap address into
// the listed test name and make the name differ from run to run.
class ModelInverseProperty : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> nas_job_type_names() {
  std::vector<std::string> names;
  for (const auto& t : workload::nas_job_types()) names.push_back(t.name);
  return names;
}

TEST_P(ModelInverseProperty, CapForSlowdownIsRightInverse) {
  const PowerPerfModel model =
      PowerPerfModel::from_job_type(workload::find_job_type(GetParam()));
  for (double s = 0.0; s <= model.max_slowdown() * 0.99; s += model.max_slowdown() / 7.0) {
    EXPECT_NEAR(model.slowdown_at(model.cap_for_slowdown(s)), s, 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, ModelInverseProperty,
                         ::testing::ValuesIn(nas_job_type_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace anor::model
