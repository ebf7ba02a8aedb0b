// Cluster power budgeters (paper Sec. 4.1, 4.4.3).
//
// A budgeter distributes a cluster power budget across running jobs as
// per-node power caps.  Two policies are evaluated:
//   * EvenPowerBudgeter   — the performance-unaware AQA rule: every job's
//     cap sits at the same fraction gamma of its achievable power range.
//   * EvenSlowdownBudgeter — the performance-aware rule: every job is
//     capped to the same *expected slowdown* s, using its
//     power-performance model.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "model/perf_model.hpp"

namespace anor::budget {

/// What the cluster tier knows about one running job when budgeting.
struct JobPowerProfile {
  int job_id = 0;
  int nodes = 1;
  model::PowerPerfModel model;
  /// Grouping hint, -1 for none.  Profiles that share a key in
  /// [0, kMaxModelKey) are expected to carry equal models (the tabular
  /// simulator passes the job's classified type index).  A budgeter may
  /// group by key instead of comparing every model, but must confirm each
  /// keyed model against its group's and fall back when they differ, so a
  /// key can never change a result, only its cost.
  int model_key = -1;
  static constexpr int kMaxModelKey = 4096;
};

/// Budgeting outcome: per-node cap for each job, plus diagnostics.
struct BudgetResult {
  /// Cap per node, positional: node_cap_w[k] belongs to the k-th input
  /// profile, whatever its job_id.  Exactly one entry per profile.
  std::vector<double> node_cap_w;
  /// Total power the caps admit (sum of nodes * cap).
  double allocated_w = 0.0;
  /// The balancing variable the policy solved for (gamma or s).
  double balance_point = 0.0;
};

class Budgeter {
 public:
  virtual ~Budgeter() = default;
  virtual std::string name() const = 0;

  /// Distribute `budget_w` watts across the jobs.  The budget covers only
  /// the jobs' nodes (idle-node power is the caller's concern).  Caps are
  /// clamped to each job's [p_min, p_max]; the allocation therefore
  /// saturates when the budget leaves that envelope.
  virtual BudgetResult distribute(const std::vector<JobPowerProfile>& jobs,
                                  double budget_w) const = 0;
};

/// Builds a fresh budgeter.  The simulator, the cluster manager and the
/// policy registry each hold one; the built-in rules and expression-DSL
/// policies are factories alike.
using BudgeterFactory = std::function<std::unique_ptr<Budgeter>()>;

/// The two built-in rules.  Their products are bare: the simulator and
/// the cluster manager wrap whatever their factory builds in
/// instrument_budgeter once.
BudgeterFactory even_power_factory();
BudgeterFactory even_slowdown_factory();

/// Wrap a budgeter in the telemetry decorator that reports every
/// distribute() call as cluster.budget.* metrics and a trace event.
std::unique_ptr<Budgeter> instrument_budgeter(std::unique_ptr<Budgeter> inner);

/// Throws util::ConfigError naming the budgeter unless `result` holds one
/// cap per input profile.  Callers index the caps by profile position, and
/// a factory-supplied budgeter is not trusted to honor that.
void require_cap_per_job(const Budgeter& budgeter, const BudgetResult& result,
                         std::size_t job_count);

/// Feasible total-power envelope of a job set.
double total_min_power_w(const std::vector<JobPowerProfile>& jobs);
double total_max_power_w(const std::vector<JobPowerProfile>& jobs);

}  // namespace anor::budget
