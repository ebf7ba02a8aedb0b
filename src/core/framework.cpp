#include "core/framework.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace anor::core {

util::TimeSeries constant_targets(double power_w, double horizon_s, double period_s) {
  return engine::constant_targets(power_w, horizon_s, period_s);
}

workload::DemandResponseBid fig9_bid() {
  // 16 nodes x [140 W floor, ~270 W mixed-type max draw] bounds the
  // feasible CPU power to roughly [2.25, 4.3] kW once a node or two
  // idles; committing 2.3-4.3 kW keeps the whole band trackable (the
  // paper's testbed committed 2.3-4.5 kW; its jobs drew fully up to TDP).
  return workload::DemandResponseBid{3300.0, 1000.0};
}

util::TimeSeries fig9_targets(std::uint64_t seed, double horizon_s) {
  const workload::DemandResponseBid bid = fig9_bid();
  const workload::RandomWalkRegulation regulation(util::Rng(seed).child("regulation"),
                                                  horizon_s + 60.0, 4.0, 0.18);
  return workload::make_power_target_series(bid, regulation, horizon_s, 4.0);
}

engine::ScenarioSpec to_scenario_spec(const Experiment& experiment) {
  if (experiment.static_budget_w && experiment.targets) {
    throw util::ConfigError("Experiment: set either static_budget_w or targets, not both");
  }
  engine::ScenarioSpec spec;
  spec.name = "experiment";
  spec.backend = engine::Backend::kEmulated;
  spec.schedule = experiment.schedule;
  spec.policy = experiment.policy;
  spec.static_budget_w = experiment.static_budget_w;
  if (experiment.targets) spec.targets = *experiment.targets;
  spec.node_count = experiment.node_count;
  spec.perf_variation_sigma = experiment.perf_variation_sigma;
  spec.seed = experiment.seed;
  spec.artifact_dir = experiment.artifact_dir;
  spec.artifact_cadence_s = experiment.artifact_cadence_s;
  return spec;
}

cluster::EmulatedCluster make_cluster(const Experiment& experiment) {
  return engine::make_emulated_cluster(to_scenario_spec(experiment), experiment.base);
}

cluster::EmulationResult run_experiment(const Experiment& experiment) {
  return engine::run_scenario(to_scenario_spec(experiment), experiment.base);
}

}  // namespace anor::core
