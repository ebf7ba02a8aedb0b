#include "budget/expr_budgeter.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace anor::budget {

ExpressionBudgeter::ExpressionBudgeter(std::string name, DslExpr expr)
    : name_(std::move(name)), expr_(std::move(expr)) {}

BudgetResult ExpressionBudgeter::distribute(const std::vector<JobPowerProfile>& jobs,
                                            double budget_w) const {
  BudgetResult result;
  if (jobs.empty()) return result;

  DslContext ctx;
  ctx.jobs = static_cast<double>(jobs.size());
  ctx.budget_w = budget_w;
  double total_nodes = 0.0;
  for (const JobPowerProfile& job : jobs) total_nodes += job.nodes;
  ctx.total_nodes = total_nodes;
  ctx.fair_w = total_nodes > 0.0 ? budget_w / total_nodes : 0.0;

  // Raw caps, clamped into each job's achievable envelope.  A non-finite
  // evaluation (degenerate expression) degrades to the floor cap.
  std::vector<double> caps(jobs.size());
  double demand_w = 0.0;
  double floor_w = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobPowerProfile& job = jobs[i];
    ctx.model = &job.model;
    ctx.nodes = static_cast<double>(job.nodes);
    double cap = expr_.eval(ctx);
    if (!std::isfinite(cap)) cap = job.model.p_min_w();
    cap = std::clamp(cap, job.model.p_min_w(), job.model.p_max_w());
    caps[i] = cap;
    demand_w += job.nodes * cap;
    floor_w += job.nodes * job.model.p_min_w();
  }

  // Over-committed: pull every cap back toward its floor by the same
  // fraction t of its p_min→cap segment, so the total meets the budget
  // (or saturates at the floor when even that is infeasible).
  double t = 1.0;
  if (demand_w > budget_w) {
    t = demand_w > floor_w
            ? std::clamp((budget_w - floor_w) / (demand_w - floor_w), 0.0, 1.0)
            : 0.0;  // already at the floor and still infeasible: fully throttled
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobPowerProfile& job = jobs[i];
    caps[i] = job.model.p_min_w() + t * (caps[i] - job.model.p_min_w());
    result.allocated_w += job.nodes * caps[i];
  }
  result.node_cap_w = std::move(caps);
  result.balance_point = t;
  return result;
}

}  // namespace anor::budget
