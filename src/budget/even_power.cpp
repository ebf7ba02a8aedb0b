#include "budget/even_power.hpp"

#include <algorithm>

namespace anor::budget {

BudgetResult EvenPowerBudgeter::distribute(const std::vector<JobPowerProfile>& jobs,
                                           double budget_w) const {
  BudgetResult result;
  if (jobs.empty()) return result;

  double min_total = 0.0;
  double span_total = 0.0;
  for (const JobPowerProfile& j : jobs) {
    min_total += j.nodes * j.model.p_min_w();
    span_total += j.nodes * (j.model.p_max_w() - j.model.p_min_w());
  }
  double gamma;
  if (span_total <= 0.0) {
    gamma = 1.0;
  } else {
    gamma = (budget_w - min_total) / span_total;
  }
  gamma = std::clamp(gamma, 0.0, 1.0);

  result.balance_point = gamma;
  result.node_cap_w.reserve(jobs.size());
  for (const JobPowerProfile& j : jobs) {
    const double cap =
        gamma * (j.model.p_max_w() - j.model.p_min_w()) + j.model.p_min_w();
    result.node_cap_w.push_back(cap);
    result.allocated_w += j.nodes * cap;
  }
  return result;
}

}  // namespace anor::budget
