#include "budget/even_slowdown.hpp"

#include <gtest/gtest.h>

#include "budget/even_power.hpp"
#include "model/default_models.hpp"

namespace anor::budget {
namespace {

JobPowerProfile profile(int id, const char* type, int nodes) {
  JobPowerProfile p;
  p.job_id = id;
  p.nodes = nodes;
  p.model = model::model_for_class(type);
  return p;
}

TEST(EvenSlowdown, EmptyJobsEmptyResult) {
  EvenSlowdownBudgeter budgeter;
  EXPECT_TRUE(budgeter.distribute({}, 1000.0).node_cap_w.empty());
}

TEST(EvenSlowdown, UsesFullBudgetInRange) {
  EvenSlowdownBudgeter budgeter;
  const std::vector<JobPowerProfile> jobs = {profile(0, "bt.D.x", 2),
                                             profile(1, "sp.D.x", 2)};
  const BudgetResult result = budgeter.distribute(jobs, 840.0);
  EXPECT_NEAR(result.allocated_w, 840.0, 3.0);
}

TEST(EvenSlowdown, EqualExpectedSlowdownAcrossJobs) {
  EvenSlowdownBudgeter budgeter;
  const std::vector<JobPowerProfile> jobs = {profile(0, "bt.D.x", 1),
                                             profile(1, "ft.D.x", 1),
                                             profile(2, "cg.D.x", 1)};
  const BudgetResult result = budgeter.distribute(jobs, 3 * 190.0);
  const double s = result.balance_point;
  EXPECT_GT(s, 0.0);
  ASSERT_EQ(result.node_cap_w.size(), jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_NEAR(jobs[k].model.slowdown_at(result.node_cap_w[k]), s, 0.02) << jobs[k].job_id;
  }
}

TEST(EvenSlowdown, InsensitiveJobLevelsOffAtFloor) {
  // Deep budget cut: IS cannot slow down enough, so it pins at p_min and
  // the sensitive job keeps more power (the Fig. 4 level-off).
  EvenSlowdownBudgeter budgeter;
  const std::vector<JobPowerProfile> jobs = {profile(0, "ep.D.x", 1),
                                             profile(1, "is.D.x", 1)};
  const BudgetResult result = budgeter.distribute(jobs, 330.0);
  EXPECT_NEAR(result.node_cap_w[1], jobs[1].model.p_min_w(), 1.0);
  EXPECT_GT(result.node_cap_w[0], jobs[0].model.p_min_w() + 20.0);
}

TEST(EvenSlowdown, SensitiveJobGetsMorePowerThanEvenPower) {
  // The motivating comparison: under the same budget the even-slowdown
  // policy steers power toward the power-sensitive job.
  const std::vector<JobPowerProfile> jobs = {profile(0, "bt.D.x", 2),
                                             profile(1, "sp.D.x", 2)};
  const BudgetResult aware = EvenSlowdownBudgeter().distribute(jobs, 840.0);
  const BudgetResult agnostic = EvenPowerBudgeter().distribute(jobs, 840.0);
  EXPECT_GT(aware.node_cap_w[0], agnostic.node_cap_w[0]);
  // And the worst-case slowdown improves.
  const double aware_worst =
      std::max(jobs[0].model.slowdown_at(aware.node_cap_w[0]),
               jobs[1].model.slowdown_at(aware.node_cap_w[1]));
  const double agnostic_worst =
      std::max(jobs[0].model.slowdown_at(agnostic.node_cap_w[0]),
               jobs[1].model.slowdown_at(agnostic.node_cap_w[1]));
  EXPECT_LT(aware_worst, agnostic_worst);
}

TEST(EvenSlowdown, BudgetAboveMaxGivesZeroSlowdown) {
  EvenSlowdownBudgeter budgeter;
  const std::vector<JobPowerProfile> jobs = {profile(0, "lu.D.x", 2)};
  const BudgetResult result = budgeter.distribute(jobs, 5000.0);
  EXPECT_DOUBLE_EQ(result.balance_point, 0.0);
  EXPECT_DOUBLE_EQ(result.node_cap_w[0], jobs[0].model.p_max_w());
}

TEST(EvenSlowdown, BudgetBelowMinPinsEveryoneToFloor) {
  EvenSlowdownBudgeter budgeter;
  const std::vector<JobPowerProfile> jobs = {profile(0, "lu.D.x", 2),
                                             profile(1, "mg.D.x", 1)};
  const BudgetResult result = budgeter.distribute(jobs, 10.0);
  EXPECT_DOUBLE_EQ(result.node_cap_w[0], jobs[0].model.p_min_w());
  EXPECT_DOUBLE_EQ(result.node_cap_w[1], jobs[1].model.p_min_w());
}

TEST(EvenSlowdown, IdenticalJobsGetIdenticalCaps) {
  EvenSlowdownBudgeter budgeter;
  const std::vector<JobPowerProfile> jobs = {profile(0, "sp.D.x", 2),
                                             profile(1, "sp.D.x", 2)};
  const BudgetResult result = budgeter.distribute(jobs, 840.0);
  EXPECT_NEAR(result.node_cap_w[0], result.node_cap_w[1], 1e-6);
}

TEST(EvenSlowdown, MonotoneInBudget) {
  EvenSlowdownBudgeter budgeter;
  const std::vector<JobPowerProfile> jobs = {profile(0, "bt.D.x", 2),
                                             profile(1, "is.D.x", 1),
                                             profile(2, "ft.D.x", 2)};
  double prev_s = 1e9;
  for (double budget = 700.0; budget <= 1400.0; budget += 100.0) {
    const BudgetResult result = budgeter.distribute(jobs, budget);
    EXPECT_LE(result.balance_point, prev_s + 1e-9) << budget;
    prev_s = result.balance_point;
  }
}

TEST(EvenSlowdown, CapsArePositionalNotKeyedByJobId) {
  // Descending, non-contiguous ids over interleaved models: caps[k] must
  // be jobs[k]'s own model solved at the common slowdown, bit for bit.
  const char* const kTypes[] = {"ep.D.x", "is.D.x", "bt.D.x", "cg.D.x", "sp.D.x"};
  std::vector<JobPowerProfile> jobs;
  for (int i = 0; i < 5003; ++i) {
    jobs.push_back(profile(10 * (5003 - i) + 7, kTypes[i % std::size(kTypes)], 1 + i % 3));
  }
  const double budget = 0.6 * total_max_power_w(jobs);

  const BudgetResult result = EvenSlowdownBudgeter().distribute(jobs, budget);
  ASSERT_EQ(result.node_cap_w.size(), jobs.size());
  EXPECT_NE(result.node_cap_w[0], result.node_cap_w[2]);  // distinct models, distinct caps
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    ASSERT_EQ(result.node_cap_w[k], jobs[k].model.cap_for_slowdown(result.balance_point))
        << "position " << k << ", job " << jobs[k].job_id;
  }
}

TEST(TotalEnvelope, Helpers) {
  const std::vector<JobPowerProfile> jobs = {profile(0, "bt.D.x", 2),
                                             profile(1, "sp.D.x", 2)};
  EXPECT_GT(total_max_power_w(jobs), total_min_power_w(jobs));
  EXPECT_NEAR(total_min_power_w(jobs),
              2 * jobs[0].model.p_min_w() + 2 * jobs[1].model.p_min_w(), 1e-9);
}

TEST(BudgeterFactory, CreatesBothKinds) {
  EXPECT_EQ(even_power_factory()()->name(), "even-power");
  EXPECT_EQ(even_slowdown_factory()()->name(), "even-slowdown");
  // Each call builds a fresh budgeter: no memo is shared between owners.
  const BudgeterFactory factory = even_slowdown_factory();
  EXPECT_NE(factory().get(), factory().get());
  // The decorator keeps the inner rule's name.
  EXPECT_EQ(instrument_budgeter(even_power_factory()())->name(), "even-power");
}

}  // namespace
}  // namespace anor::budget
