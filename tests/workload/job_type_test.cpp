#include "workload/job_type.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.hpp"

namespace anor::workload {
namespace {

TEST(JobTypeRegistry, HasAllEightNpbTypes) {
  const auto& types = nas_job_types();
  ASSERT_EQ(types.size(), 8u);
  for (const char* name :
       {"bt.D.x", "cg.D.x", "ep.D.x", "ft.D.x", "is.D.x", "lu.D.x", "mg.D.x", "sp.D.x"}) {
    EXPECT_NO_THROW(find_job_type(name)) << name;
  }
}

TEST(JobTypeRegistry, LongTypesOmitIsAndEp) {
  const auto& types = nas_long_job_types();
  ASSERT_EQ(types.size(), 6u);
  for (const auto& t : types) {
    EXPECT_NE(t.name, "is.D.x");
    EXPECT_NE(t.name, "ep.D.x");
  }
}

TEST(JobTypeRegistry, UnknownNameThrowsOrNullopt) {
  EXPECT_THROW(find_job_type("xx.D.x"), util::ConfigError);
  EXPECT_FALSE(try_find_job_type("xx.D.x").has_value());
  EXPECT_TRUE(try_find_job_type("bt.D.x").has_value());
}

TEST(JobType, RelativeTimeIsOneAtMaxCap) {
  for (const auto& t : nas_job_types()) {
    EXPECT_DOUBLE_EQ(t.relative_time(kNodeMaxCapW), 1.0) << t.name;
  }
}

TEST(JobType, Fig3SlowdownSpanMatchesPaper) {
  // Fig. 3's curves span ~1.0-1.8 at the floor cap, with EP steepest and
  // IS flattest.
  const JobType& ep = find_job_type("ep.D.x");
  const JobType& is = find_job_type("is.D.x");
  EXPECT_NEAR(ep.relative_time(kNodeMinCapW), 1.80, 1e-9);
  EXPECT_NEAR(is.relative_time(kNodeMinCapW), 1.12, 1e-9);
  for (const auto& t : nas_job_types()) {
    const double slowdown = t.relative_time(kNodeMinCapW);
    EXPECT_GE(slowdown, 1.10) << t.name;
    EXPECT_LE(slowdown, 1.85) << t.name;
  }
}

TEST(JobType, SensitivityOrderingMatchesPaper) {
  // EP > BT > LU > FT > CG > MG > SP > IS at the floor cap.
  const char* order[] = {"ep.D.x", "bt.D.x", "lu.D.x", "ft.D.x",
                         "cg.D.x", "mg.D.x", "sp.D.x", "is.D.x"};
  for (int i = 0; i + 1 < 8; ++i) {
    EXPECT_GT(find_job_type(order[i]).max_slowdown(),
              find_job_type(order[i + 1]).max_slowdown())
        << order[i] << " vs " << order[i + 1];
  }
}

TEST(JobType, RelativeTimeMonotoneDecreasingInCap) {
  for (const auto& t : nas_job_types()) {
    double prev = t.relative_time(kNodeMinCapW);
    for (double cap = kNodeMinCapW + 10.0; cap <= kNodeMaxCapW; cap += 10.0) {
      const double current = t.relative_time(cap);
      EXPECT_LE(current, prev + 1e-12) << t.name << " at " << cap;
      prev = current;
    }
  }
}

TEST(JobType, CapsClampOutsideRange) {
  const JobType& bt = find_job_type("bt.D.x");
  EXPECT_DOUBLE_EQ(bt.relative_time(50.0), bt.relative_time(kNodeMinCapW));
  EXPECT_DOUBLE_EQ(bt.relative_time(500.0), 1.0);
}

TEST(JobType, ShortJobsAreShort) {
  // Paper Sec. 7.2: IS and EP run in under half a minute.
  EXPECT_LT(find_job_type("is.D.x").min_exec_time_s(), 30.0);
  EXPECT_LT(find_job_type("ep.D.x").min_exec_time_s(), 30.0);
  // The others take minutes.
  EXPECT_GT(find_job_type("bt.D.x").min_exec_time_s(), 60.0);
  EXPECT_GT(find_job_type("sp.D.x").min_exec_time_s(), 60.0);
}

TEST(JobType, ExecTimeIsEpochsTimesEpochTime) {
  const JobType& lu = find_job_type("lu.D.x");
  EXPECT_DOUBLE_EQ(lu.exec_time_s(200.0), lu.epoch_time_s(200.0) * lu.epochs);
}

TEST(JobType, PowerAtCapEndpoints) {
  const JobType& is = find_job_type("is.D.x");
  EXPECT_DOUBLE_EQ(is.power_at_cap_w(kNodeMaxCapW), is.max_power_w);
  EXPECT_DOUBLE_EQ(is.power_at_cap_w(kNodeMinCapW), is.min_power_w);
  // Compute-bound jobs draw right at the cap in the middle of the range.
  const JobType& ep = find_job_type("ep.D.x");
  EXPECT_NEAR(ep.power_at_cap_w(200.0), 200.0, 3.0);
}

TEST(JobType, PowerAtCapMonotone) {
  for (const auto& t : nas_job_types()) {
    double prev = t.power_at_cap_w(kNodeMinCapW);
    for (double cap = kNodeMinCapW; cap <= kNodeMaxCapW; cap += 5.0) {
      const double p = t.power_at_cap_w(cap);
      EXPECT_GE(p, prev - 1e-9) << t.name;
      EXPECT_LE(p, cap + 1e-9) << t.name << ": power exceeds cap";
      prev = p;
    }
  }
}

TEST(JobType, CapForRelativeTimeInvertsRelativeTime) {
  // Inversion is unique only below the job's max draw (the curve is flat
  // above it).
  for (const auto& t : nas_job_types()) {
    for (double cap = kNodeMinCapW; cap < t.max_power_w - 1.0; cap += 20.0) {
      const double rel = t.relative_time(cap);
      EXPECT_NEAR(t.cap_for_relative_time(rel), cap, 0.5) << t.name;
    }
  }
}

TEST(JobType, CapForRelativeTimeSaturates) {
  const JobType& is = find_job_type("is.D.x");
  EXPECT_DOUBLE_EQ(is.cap_for_relative_time(0.9), kNodeMaxCapW);
  EXPECT_DOUBLE_EQ(is.cap_for_relative_time(5.0), kNodeMinCapW);
}

TEST(JobType, ScaledTypeMultipliesNodes) {
  const JobType& bt = find_job_type("bt.D.x");
  const JobType scaled = scaled_job_type(bt, 25);
  EXPECT_EQ(scaled.nodes, bt.nodes * 25);
  EXPECT_DOUBLE_EQ(scaled.min_exec_time_s(), bt.min_exec_time_s());
}

// Parameterized property: quadratic coefficients reproduce relative_time
// through the T = A P^2 + B P + C expansion for every type.  The parameter
// is the type name rather than the JobType: gtest prints a struct without
// operator<< as its raw bytes, which would put a heap address into the
// listed test name and make the name differ from run to run.
class JobTypeCurveProperty : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> nas_job_type_names() {
  std::vector<std::string> names;
  for (const auto& t : nas_job_types()) names.push_back(t.name);
  return names;
}

TEST_P(JobTypeCurveProperty, EpochTimeIsQuadraticInCap) {
  const JobType& t = find_job_type(GetParam());
  // Three samples determine the quadratic; a fourth must agree.  Points
  // stay below every type's max draw (IS saturates at 225 W) so they sit
  // on one quadratic segment.
  const double p1 = 150.0;
  const double p2 = 180.0;
  const double p3 = 210.0;
  const double p4 = 195.0;
  // Lagrange interpolation at p4 from the three samples.
  const auto f = [&](double p) { return t.epoch_time_s(p); };
  const double l1 = (p4 - p2) * (p4 - p3) / ((p1 - p2) * (p1 - p3));
  const double l2 = (p4 - p1) * (p4 - p3) / ((p2 - p1) * (p2 - p3));
  const double l3 = (p4 - p1) * (p4 - p2) / ((p3 - p1) * (p3 - p2));
  const double interpolated = f(p1) * l1 + f(p2) * l2 + f(p3) * l3;
  EXPECT_NEAR(interpolated, f(p4), 1e-9) << t.name;
}

INSTANTIATE_TEST_SUITE_P(AllTypes, JobTypeCurveProperty,
                         ::testing::ValuesIn(nas_job_type_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace anor::workload
