// Test double for the positional-cap contract (BudgetResult::node_cap_w
// holds exactly one cap per input profile): a budgeter that returns one
// cap too few, as a faulty budgeter_factory product could.
#pragma once

#include <string>
#include <vector>

#include "budget/even_power.hpp"

namespace anor::budget {

class OneCapShortBudgeter final : public Budgeter {
 public:
  std::string name() const override { return "one-cap-short"; }
  BudgetResult distribute(const std::vector<JobPowerProfile>& jobs,
                          double budget_w) const override {
    BudgetResult result = EvenPowerBudgeter().distribute(jobs, budget_w);
    if (!result.node_cap_w.empty()) result.node_cap_w.pop_back();
    return result;
  }
};

}  // namespace anor::budget
