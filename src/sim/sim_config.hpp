// Configuration of the tabular cluster simulator (paper Sec. 5.6).
//
// "The simulator takes cluster and job-type properties, and produces a
// time series of cluster power consumption and a job queue with
// submission, start, and end time of each job."  Job-type properties are
// the endpoints of a linear power-performance relationship: power range
// per node and execution time at either end.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "budget/budgeter.hpp"
#include "model/perf_model.hpp"
#include "util/rng.hpp"
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

  /// Builds the budgeter (the policy's, see engine::apply_policy); the
  /// simulator wraps its product in budget::instrument_budgeter.
  budget::BudgeterFactory budgeter_factory = budget::even_slowdown_factory();
  bool power_aware_admission = true;
  /// EASY backfill within queues (see sched::SchedulerConfig::backfill).
  bool backfill = false;
  /// Single FCFS queue instead of AQA's per-type queues.
  bool single_queue = false;
  /// Feedback variant (paper Sec. 6.4): jobs projected to breach their
  /// QoS limit are exempted from power capping.
  bool protect_at_risk_jobs = false;
  double at_risk_fraction = 0.8;  // protect when projected Q > frac*limit

  /// The power objective (watts, zero-order hold; a static budget is one
  /// sample).  Empty disables tracking: the cluster runs uncapped.  A
  /// demand-response bid becomes this series through set_bid_targets.
  util::TimeSeries power_targets;
  /// Error normalization for tracking statistics; <= 0 derives half the
  /// observed target span.
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

/// Track a demand-response bid: `power_targets` becomes P_avg + R * y(t)
/// on a 4 s grid over 4 x duration_s (the run's hard stop), with y(t) the
/// random walk drawn from sim_rng.child("regulation"), and
/// `tracking_reserve_w` becomes R.  A reserve <= 0 leaves the series
/// empty.  `sim_rng` is the stream the simulator runs on.
void set_bid_targets(SimConfig& config, const workload::DemandResponseBid& bid,
                     const util::Rng& sim_rng);

/// The six-type / eight-type standard mixes, as SimJobTypes.
std::vector<SimJobType> standard_sim_types(bool long_types_only, int node_scale);

}  // namespace anor::sim
