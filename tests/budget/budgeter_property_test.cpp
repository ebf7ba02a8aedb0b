// Property sweeps over both budgeters: for arbitrary job mixes and any
// budget, an allocation must (a) keep every cap inside the job's feasible
// range, (b) sum to the budget whenever the budget is inside the mix's
// envelope, (c) saturate at the envelope edges, and (d) respond
// monotonically to budget changes.
#include <gtest/gtest.h>

#include <tuple>

#include "budget/budgeter.hpp"
#include "model/default_models.hpp"
#include "util/rng.hpp"
#include "workload/job_type.hpp"

namespace anor::budget {
namespace {

std::vector<JobPowerProfile> random_mix(util::Rng& rng, int job_count) {
  const auto& types = workload::nas_job_types();
  std::vector<JobPowerProfile> jobs;
  for (int i = 0; i < job_count; ++i) {
    JobPowerProfile profile;
    profile.job_id = i;
    profile.nodes = static_cast<int>(rng.uniform_int(1, 8));
    profile.model = model::PowerPerfModel::from_job_type(
        types[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(types.size()) - 1))]);
    jobs.push_back(std::move(profile));
  }
  return jobs;
}

/// The budgeter under test.  A scoped enum, not the factory itself, so
/// gtest prints the parameter as the same bytes in every build.
enum class Rule { kEvenPower, kEvenSlowdown };

std::unique_ptr<Budgeter> make(Rule rule) {
  return (rule == Rule::kEvenPower ? even_power_factory() : even_slowdown_factory())();
}

using Param = std::tuple<Rule, int /*jobs*/, std::uint64_t /*seed*/>;

class BudgeterProperty : public ::testing::TestWithParam<Param> {};

TEST_P(BudgeterProperty, AllocationInvariants) {
  const auto [rule, job_count, seed] = GetParam();
  util::Rng rng(seed);
  const auto jobs = random_mix(rng, job_count);
  const auto budgeter = make(rule);
  const double min_w = total_min_power_w(jobs);
  const double max_w = total_max_power_w(jobs);

  double previous_allocated = -1.0;
  for (double frac : {-0.2, 0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.3}) {
    const double budget = min_w + frac * (max_w - min_w);
    const BudgetResult result = budgeter->distribute(jobs, budget);

    // (a) every job got a cap inside its feasible range.
    ASSERT_EQ(result.node_cap_w.size(), jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      EXPECT_GE(result.node_cap_w[k], jobs[k].model.p_min_w() - 1e-6);
      EXPECT_LE(result.node_cap_w[k], jobs[k].model.p_max_w() + 1e-6);
    }

    // (b) inside the envelope the budget is used (within solver tolerance).
    if (frac >= 0.1 && frac <= 0.9) {
      EXPECT_NEAR(result.allocated_w, budget, std::max(2.0, budget * 0.002))
          << "frac=" << frac;
    }
    // (c) outside it the allocation saturates at the envelope.
    if (frac <= 0.0) EXPECT_NEAR(result.allocated_w, min_w, 1e-6);
    if (frac >= 1.0) EXPECT_NEAR(result.allocated_w, max_w, 1e-6);

    // (d) total allocation is monotone in the budget.
    EXPECT_GE(result.allocated_w, previous_allocated - 1e-6);
    previous_allocated = result.allocated_w;
  }
}

TEST_P(BudgeterProperty, PerJobCapsMonotoneInBudget) {
  const auto [rule, job_count, seed] = GetParam();
  util::Rng rng(seed + 1000);
  const auto jobs = random_mix(rng, job_count);
  const auto budgeter = make(rule);
  const double min_w = total_min_power_w(jobs);
  const double max_w = total_max_power_w(jobs);

  std::vector<double> previous;
  for (double frac = 0.0; frac <= 1.0; frac += 0.1) {
    const BudgetResult result =
        budgeter->distribute(jobs, min_w + frac * (max_w - min_w));
    ASSERT_EQ(result.node_cap_w.size(), jobs.size());
    for (std::size_t k = 0; k < previous.size(); ++k) {
      EXPECT_GE(result.node_cap_w[k], previous[k] - 0.5)
          << "job " << jobs[k].job_id << " frac " << frac;
    }
    previous = result.node_cap_w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BudgeterProperty,
    ::testing::Combine(::testing::Values(Rule::kEvenPower, Rule::kEvenSlowdown),
                       ::testing::Values(1, 3, 8, 20),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::get<0>(info.param) == Rule::kEvenPower
                 ? "even_power_j" + std::to_string(std::get<1>(info.param)) + "_s" +
                       std::to_string(std::get<2>(info.param))
                 : "even_slowdown_j" + std::to_string(std::get<1>(info.param)) + "_s" +
                       std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace anor::budget
