// Configuration of the tabular cluster simulator (paper Sec. 5.6).
//
// "The simulator takes cluster and job-type properties, and produces a
// time series of cluster power consumption and a job queue with
// submission, start, and end time of each job."  Job-type properties are
// the endpoints of a linear power-performance relationship: power range
// per node and execution time at either end.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <map>

#include "budget/budgeter.hpp"
#include "model/perf_model.hpp"
#include "util/time_series.hpp"
#include "workload/job_type.hpp"
#include "workload/regulation.hpp"

namespace anor::sim {

struct SimJobType {
  std::string name;
  int nodes = 1;
  double p_max_w = workload::kNodeMaxCapW;  // per node, while running
  double p_min_w = workload::kNodeMinCapW;
  double time_at_pmax_s = 100.0;  // fastest (unconstrained) execution
  double time_at_pmin_s = 150.0;  // slowest (floor-cap) execution
  double qos_limit = 5.0;

  /// Build from a full job type, optionally scaled to more nodes
  /// (Fig. 11 scales jobs 25x for the 1000-node cluster).
  static SimJobType from_job_type(const workload::JobType& type, int node_scale = 1);

  /// Progress per second at a node cap: linear between the endpoints'
  /// rates (paper Sec. 5.6).
  double progress_rate(double cap_w) const;

  /// Power one node draws at a cap (clamped into [p_min, p_max]).
  double power_at(double cap_w) const;

  /// Power-performance model for the budgeter, fitted to this linear
  /// relationship (T(P) = 1/rate(P) sampled and quadratic-fitted).
  model::PowerPerfModel budget_model() const;
};

/// Exact field equality.  budget_model() is a pure function of these
/// fields, so equal types fit bit-identical models — the warm-start cache
/// keys its shared fitted-model table on this comparison.
inline bool operator==(const SimJobType& a, const SimJobType& b) {
  return a.name == b.name && a.nodes == b.nodes && a.p_max_w == b.p_max_w &&
         a.p_min_w == b.p_min_w && a.time_at_pmax_s == b.time_at_pmax_s &&
         a.time_at_pmin_s == b.time_at_pmin_s && a.qos_limit == b.qos_limit;
}
inline bool operator!=(const SimJobType& a, const SimJobType& b) { return !(a == b); }

struct SimConfig {
  int node_count = 1000;
  double idle_power_w = 90.0;      // per idle node
  double duration_s = 3600.0;
  double step_s = 1.0;
  /// Per-node performance multiplier sigma (mean 1); 0 disables.
  double perf_variation_sigma = 0.0;

  std::vector<SimJobType> job_types;

  budget::BudgeterKind budgeter = budget::BudgeterKind::kEvenSlowdown;
  /// When set, overrides `budgeter`: the policy registry's factory seam
  /// for custom (e.g. expression-DSL) budgeters.  The simulator wraps the
  /// product in the same telemetry decorator make_budgeter applies.
  /// Custom policies travel by name through ScenarioSpec.
  std::function<std::unique_ptr<budget::Budgeter>()> budgeter_factory;
  bool power_aware_admission = true;
  /// EASY backfill within queues (see sched::SchedulerConfig::backfill).
  bool backfill = false;
  /// Single FCFS queue instead of AQA's per-type queues.
  bool single_queue = false;
  /// Feedback variant (paper Sec. 6.4): jobs projected to breach their
  /// QoS limit are exempted from power capping.
  bool protect_at_risk_jobs = false;
  double at_risk_fraction = 0.8;  // protect when projected Q > frac*limit

  /// Demand response: targets follow bid.average +/- bid.reserve * y(t).
  /// A zero reserve disables tracking (the cluster runs uncapped).
  workload::DemandResponseBid bid;
  double regulation_step_s = 4.0;
  double regulation_volatility = 0.18;

  /// Explicit power-target series (watts).  When non-empty it overrides
  /// the bid-driven regulation walk, so a scenario can drive the tabular
  /// backend with exactly the targets the emulated cluster tracks.
  util::TimeSeries power_targets;
  /// Error normalization for tracking statistics when `power_targets` is
  /// set; <= 0 derives half the observed target span.
  double tracking_reserve_w = 0.0;

  /// How often the policy tier re-budgets, seconds.
  double control_period_s = 4.0;

  /// Exclude this initial window from tracking-error statistics: before
  /// the queue fills, the cluster cannot reach a loaded-power target (the
  /// paper evaluates tracking over the hour of job arrivals).
  double tracking_warmup_s = 120.0;

  /// Queue weights for the scheduler (type name -> weight, default 1).
  std::map<std::string, double> queue_weights;

  /// Record the tick count, cluster power and running-job count in the
  /// global metrics registry (sim.ticks, sim.power_w, sim.running_jobs).
  /// Per-phase wall time comes from the span profiler, not from here.
  bool telemetry_enabled = true;
};

/// The six-type / eight-type standard mixes, as SimJobTypes.
std::vector<SimJobType> standard_sim_types(bool long_types_only, int node_scale);

}  // namespace anor::sim
