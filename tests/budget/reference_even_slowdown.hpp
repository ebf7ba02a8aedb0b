// Reference even-slowdown solve for differential tests: the job-ordered
// algorithm EvenSlowdownBudgeter::distribute is required to reproduce bit
// for bit.  Jobs group by exact coefficient equality (linear scan, first
// seen order), and every threshold decision -- both envelope branches, the
// bisection's stop test and its direction -- compares the budget with a
// total summed over the jobs in input order.  No memo and no telemetry:
// those never change a value.  `visited`, when given, receives every
// bisection midpoint with the ordered total there, so a test can aim a
// budget at the exact threshold of a decision.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "budget/budgeter.hpp"

namespace anor::budget::reference {

inline BudgetResult even_slowdown(const std::vector<JobPowerProfile>& jobs,
                                  double budget_w, double tolerance_w = 0.5,
                                  std::vector<std::pair<double, double>>* visited = nullptr) {
  BudgetResult result;
  if (jobs.empty()) return result;

  const auto same_model = [](const model::PowerPerfModel& x, const model::PowerPerfModel& y) {
    return x.a() == y.a() && x.b() == y.b() && x.c() == y.c() &&
           x.p_min_w() == y.p_min_w() && x.p_max_w() == y.p_max_w();
  };
  std::vector<const model::PowerPerfModel*> reps;
  std::vector<std::size_t> group_of;
  for (const JobPowerProfile& j : jobs) {
    std::size_t k = 0;
    while (k < reps.size() && !same_model(*reps[k], j.model)) ++k;
    if (k == reps.size()) reps.push_back(&j.model);
    group_of.push_back(k);
  }
  std::vector<double> caps(reps.size());
  const auto caps_at = [&](double s) {
    for (std::size_t k = 0; k < reps.size(); ++k) caps[k] = reps[k]->cap_for_slowdown(s);
  };
  const auto total_at = [&](double s) {
    caps_at(s);
    double total = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) total += jobs[i].nodes * caps[group_of[i]];
    return total;
  };

  const double max_total = total_max_power_w(jobs);
  const double min_total = total_min_power_w(jobs);
  double s = 0.0;
  if (budget_w >= max_total) {
    s = 0.0;
  } else if (budget_w <= min_total) {
    for (const JobPowerProfile& j : jobs) s = std::max(s, j.model.max_slowdown());
  } else {
    double lo = 0.0;
    double hi = 0.0;
    for (const JobPowerProfile& j : jobs) hi = std::max(hi, j.model.max_slowdown());
    hi = std::max(hi, 1e-6);
    for (int iter = 0; iter < 100; ++iter) {
      const double mid = 0.5 * (lo + hi);
      const double total = total_at(mid);
      if (visited != nullptr) visited->emplace_back(mid, total);
      if (std::abs(total - budget_w) <= tolerance_w) {
        lo = hi = mid;
        break;
      }
      if (total > budget_w) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    s = 0.5 * (lo + hi);
  }

  result.balance_point = s;
  caps_at(s);
  result.node_cap_w.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const double cap = caps[group_of[i]];
    result.node_cap_w[i] = cap;
    result.allocated_w += jobs[i].nodes * cap;
  }
  return result;
}

}  // namespace anor::budget::reference
