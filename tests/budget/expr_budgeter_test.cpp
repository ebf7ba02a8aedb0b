// Expression-DSL budgeter (budget/expr_budgeter.hpp): the envelope and
// over-commit contracts every budgeter honors, on scripted caps.
#include "budget/expr_budgeter.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "budget/budgeter.hpp"
#include "workload/job_type.hpp"

namespace anor::budget {
namespace {

std::vector<JobPowerProfile> profiles() {
  std::vector<JobPowerProfile> jobs;
  int id = 1;
  for (const workload::JobType& type : workload::nas_long_job_types()) {
    JobPowerProfile job;
    job.job_id = id++;
    job.nodes = 4;
    job.model = model::PowerPerfModel::from_job_type(type);
    jobs.push_back(job);
  }
  return jobs;
}

ExpressionBudgeter fair_share() {
  return ExpressionBudgeter("fair", DslExpr::parse("clamp(fair_w, p_min, p_max)"));
}

TEST(ExpressionBudgeter, CapsStayInsideEachJobsEnvelope) {
  const std::vector<JobPowerProfile> jobs = profiles();
  for (double budget : {total_min_power_w(jobs) * 0.5, total_min_power_w(jobs) * 1.2,
                        total_max_power_w(jobs) * 0.9, total_max_power_w(jobs) * 2.0}) {
    const BudgetResult result = fair_share().distribute(jobs, budget);
    ASSERT_EQ(result.node_cap_w.size(), jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      EXPECT_GE(result.node_cap_w[k], jobs[k].model.p_min_w() - 1e-9);
      EXPECT_LE(result.node_cap_w[k], jobs[k].model.p_max_w() + 1e-9);
    }
  }
}

TEST(ExpressionBudgeter, NeverOverCommitsAFeasibleBudget) {
  const std::vector<JobPowerProfile> jobs = profiles();
  const double lo = total_min_power_w(jobs);
  const double hi = total_max_power_w(jobs);
  for (double frac : {0.2, 0.5, 0.8, 1.0}) {
    const double budget = lo + frac * (hi - lo);
    // A deliberately greedy expression: ask for p_max everywhere.
    const ExpressionBudgeter greedy("greedy", DslExpr::parse("p_max"));
    const BudgetResult result = greedy.distribute(jobs, budget);
    EXPECT_LE(result.allocated_w, budget + 1e-6) << "budget " << budget;
  }
}

TEST(ExpressionBudgeter, InfeasibleBudgetSaturatesAtTheFloor) {
  const std::vector<JobPowerProfile> jobs = profiles();
  const BudgetResult result = fair_share().distribute(jobs, 1.0);
  ASSERT_EQ(result.node_cap_w.size(), jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_DOUBLE_EQ(result.node_cap_w[k], jobs[k].model.p_min_w());
  }
  EXPECT_DOUBLE_EQ(result.balance_point, 0.0);
}

TEST(ExpressionBudgeter, DegenerateExpressionDegradesToTheFloorCap) {
  const std::vector<JobPowerProfile> jobs = profiles();
  // 1/0 is totalized to 0 inside the DSL; 0 then clamps to p_min.
  const ExpressionBudgeter broken("broken", DslExpr::parse("1 / 0"));
  const BudgetResult result = broken.distribute(jobs, 1e9);
  ASSERT_EQ(result.node_cap_w.size(), jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_DOUBLE_EQ(result.node_cap_w[k], jobs[k].model.p_min_w());
  }
}

TEST(ExpressionBudgeter, RepeatedDistributionIsBitIdentical) {
  const std::vector<JobPowerProfile> jobs = profiles();
  const BudgetResult a = fair_share().distribute(jobs, 2000.0);
  const BudgetResult b = fair_share().distribute(jobs, 2000.0);
  EXPECT_EQ(a.node_cap_w, b.node_cap_w);
  EXPECT_EQ(a.allocated_w, b.allocated_w);
  EXPECT_EQ(a.balance_point, b.balance_point);
}

TEST(ExpressionBudgeter, CapsArePositionalNotKeyedByJobId) {
  // Descending, non-contiguous ids; each job asks for a cap of its own
  // (p_max less 10 W per node) and the budget is ample, so caps[k] must be
  // exactly what jobs[k] asked for.
  std::vector<JobPowerProfile> jobs = profiles();
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    jobs[k].job_id = static_cast<int>(1000 - 97 * k);
    jobs[k].nodes = static_cast<int>(1 + k);
  }
  const ExpressionBudgeter own("own", DslExpr::parse("p_max - 10 * nodes"));
  const BudgetResult result = own.distribute(jobs, 2.0 * total_max_power_w(jobs));
  ASSERT_EQ(result.node_cap_w.size(), jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const model::PowerPerfModel& m = jobs[k].model;
    EXPECT_DOUBLE_EQ(result.node_cap_w[k],
                     std::clamp(m.p_max_w() - 10.0 * jobs[k].nodes, m.p_min_w(), m.p_max_w()))
        << "position " << k << ", job " << jobs[k].job_id;
  }
}

TEST(ExpressionBudgeter, EmptyJobSetIsANoop) {
  const BudgetResult result = fair_share().distribute({}, 1000.0);
  EXPECT_TRUE(result.node_cap_w.empty());
  EXPECT_DOUBLE_EQ(result.allocated_w, 0.0);
}

}  // namespace
}  // namespace anor::budget
