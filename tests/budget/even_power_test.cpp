#include "budget/even_power.hpp"

#include <gtest/gtest.h>

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

TEST(EvenPower, EmptyJobsEmptyResult) {
  EvenPowerBudgeter budgeter;
  const BudgetResult result = budgeter.distribute({}, 1000.0);
  EXPECT_TRUE(result.node_cap_w.empty());
  EXPECT_DOUBLE_EQ(result.allocated_w, 0.0);
}

TEST(EvenPower, AllocatedMatchesBudgetInRange) {
  EvenPowerBudgeter budgeter;
  const std::vector<JobPowerProfile> jobs = {profile(0, "bt.D.x", 2),
                                             profile(1, "sp.D.x", 2)};
  const double budget = 840.0;  // mid-range for 4 nodes
  const BudgetResult result = budgeter.distribute(jobs, budget);
  EXPECT_NEAR(result.allocated_w, budget, 2.0);
  EXPECT_GE(result.balance_point, 0.0);
  EXPECT_LE(result.balance_point, 1.0);
}

TEST(EvenPower, SameGammaForAllJobs) {
  EvenPowerBudgeter budgeter;
  const std::vector<JobPowerProfile> jobs = {profile(0, "bt.D.x", 1),
                                             profile(1, "is.D.x", 1)};
  const BudgetResult result = budgeter.distribute(jobs, 450.0);
  const double gamma = result.balance_point;
  ASSERT_EQ(result.node_cap_w.size(), jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const model::PowerPerfModel& m = jobs[k].model;
    const double expected = gamma * (m.p_max_w() - m.p_min_w()) + m.p_min_w();
    EXPECT_NEAR(result.node_cap_w[k], expected, 1e-9);
  }
}

TEST(EvenPower, BudgetBeyondMaxSaturatesAtPMax) {
  EvenPowerBudgeter budgeter;
  const std::vector<JobPowerProfile> jobs = {profile(0, "bt.D.x", 2)};
  const BudgetResult result = budgeter.distribute(jobs, 10000.0);
  EXPECT_DOUBLE_EQ(result.node_cap_w[0], jobs[0].model.p_max_w());
  EXPECT_DOUBLE_EQ(result.balance_point, 1.0);
}

TEST(EvenPower, BudgetBelowMinPinsToPMin) {
  EvenPowerBudgeter budgeter;
  const std::vector<JobPowerProfile> jobs = {profile(0, "bt.D.x", 2),
                                             profile(1, "lu.D.x", 2)};
  const BudgetResult result = budgeter.distribute(jobs, 100.0);
  EXPECT_DOUBLE_EQ(result.node_cap_w[0], jobs[0].model.p_min_w());
  EXPECT_DOUBLE_EQ(result.node_cap_w[1], jobs[1].model.p_min_w());
  EXPECT_DOUBLE_EQ(result.balance_point, 0.0);
}

TEST(EvenPower, NodeCountsWeightTheAllocation) {
  EvenPowerBudgeter budgeter;
  // One 4-node job and one 1-node job of the same type: same per-node
  // cap, 4x the power.
  const std::vector<JobPowerProfile> jobs = {profile(0, "cg.D.x", 4),
                                             profile(1, "cg.D.x", 1)};
  const BudgetResult result = budgeter.distribute(jobs, 5 * 200.0);
  EXPECT_NEAR(result.node_cap_w[0], result.node_cap_w[1], 1e-9);
}

TEST(EvenPower, CapsArePositionalNotKeyedByJobId) {
  // Descending, non-contiguous ids over distinct models: caps[k] is
  // jobs[k]'s cap whatever its id.
  EvenPowerBudgeter budgeter;
  const std::vector<JobPowerProfile> jobs = {profile(907, "ep.D.x", 1),
                                             profile(512, "is.D.x", 2),
                                             profile(64, "bt.D.x", 1),
                                             profile(9, "cg.D.x", 3)};
  const double budget = 0.5 * (total_min_power_w(jobs) + total_max_power_w(jobs));
  const BudgetResult result = budgeter.distribute(jobs, budget);
  ASSERT_EQ(result.node_cap_w.size(), jobs.size());
  const double gamma = result.balance_point;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const model::PowerPerfModel& m = jobs[k].model;
    EXPECT_DOUBLE_EQ(result.node_cap_w[k], gamma * (m.p_max_w() - m.p_min_w()) + m.p_min_w())
        << "position " << k << ", job " << jobs[k].job_id;
  }
}

TEST(EvenPower, UnevenSensitivityStillEvenPowerRatio) {
  // The defining behavior: EP (sensitive) and IS (insensitive) get caps at
  // the same fraction of their ranges, so EP suffers more slowdown.
  EvenPowerBudgeter budgeter;
  const std::vector<JobPowerProfile> jobs = {profile(0, "ep.D.x", 1),
                                             profile(1, "is.D.x", 1)};
  const BudgetResult result = budgeter.distribute(jobs, 400.0);
  const double ep_slow = jobs[0].model.slowdown_at(result.node_cap_w[0]);
  const double is_slow = jobs[1].model.slowdown_at(result.node_cap_w[1]);
  EXPECT_GT(ep_slow, is_slow * 2.0);
}

}  // namespace
}  // namespace anor::budget
