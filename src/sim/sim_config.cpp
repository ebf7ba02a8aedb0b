#include "sim/sim_config.hpp"

#include <algorithm>

namespace anor::sim {

SimJobType SimJobType::from_job_type(const workload::JobType& type, int node_scale) {
  SimJobType sim_type;
  sim_type.name = type.name;
  sim_type.nodes = type.nodes * node_scale;
  sim_type.p_max_w = type.max_power_w;
  sim_type.p_min_w = std::max(type.min_power_w, workload::kNodeMinCapW);
  sim_type.time_at_pmax_s = type.min_exec_time_s();
  sim_type.time_at_pmin_s = type.exec_time_s(workload::kNodeMinCapW);
  return sim_type;
}

double SimJobType::progress_rate(double cap_w) const {
  const double rate_max = 1.0 / time_at_pmax_s;
  const double rate_min = 1.0 / time_at_pmin_s;
  if (p_max_w <= p_min_w) return rate_max;
  const double cap = std::clamp(cap_w, p_min_w, p_max_w);
  const double frac = (cap - p_min_w) / (p_max_w - p_min_w);
  return rate_min + frac * (rate_max - rate_min);
}

double SimJobType::power_at(double cap_w) const {
  return std::clamp(cap_w, p_min_w, p_max_w);
}

model::PowerPerfModel SimJobType::budget_model() const {
  // Sample T(P) = 1/rate(P) and fit the quadratic family the budgeters
  // consume.  The fit is near-exact over the narrow cap range.
  std::vector<double> caps;
  std::vector<double> times;
  const int samples = 15;
  for (int i = 0; i < samples; ++i) {
    const double cap = p_min_w + (p_max_w - p_min_w) * i / (samples - 1);
    caps.push_back(cap);
    times.push_back(1.0 / progress_rate(cap));
  }
  return model::PowerPerfModel::fit(caps, times, p_min_w, p_max_w);
}

void set_bid_targets(SimConfig& config, const workload::DemandResponseBid& bid,
                     const util::Rng& sim_rng) {
  config.power_targets = util::TimeSeries{};
  config.tracking_reserve_w = bid.reserve_w;
  if (bid.reserve_w <= 0.0) return;
  const double horizon_s = 4.0 * config.duration_s;
  const workload::RandomWalkRegulation regulation(sim_rng.child("regulation"), horizon_s, 4.0);
  config.power_targets = workload::make_power_target_series(bid, regulation, horizon_s, 4.0);
}

std::vector<SimJobType> standard_sim_types(bool long_types_only, int node_scale) {
  const auto& types =
      long_types_only ? workload::nas_long_job_types() : workload::nas_job_types();
  std::vector<SimJobType> sim_types;
  sim_types.reserve(types.size());
  for (const auto& t : types) sim_types.push_back(SimJobType::from_job_type(t, node_scale));
  return sim_types;
}

}  // namespace anor::sim
