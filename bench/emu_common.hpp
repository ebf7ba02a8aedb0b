// Shared scaffolding for the emulated-cluster figures (6, 7, 8, 9, 10).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cluster/emulation.hpp"
#include "engine/runner.hpp"
#include "util/stats.hpp"
#include "workload/schedule.hpp"

namespace anor::bench {

/// The emulation configuration used by the real-cluster experiments.
inline cluster::EmulationConfig paper_emulation_base() {
  cluster::EmulationConfig config;
  config.node.package.response_tau_s = 0.3;
  config.step_s = 0.25;
  // Re-budget twice a second so 4 s target steps are tracked promptly.
  config.manager.control_period_s = 0.5;
  config.endpoint.period_s = 0.5;
  // Modest measurement noise so trials differ, as on hardware.
  config.controller.kernel.time_noise_sigma = 0.01;
  config.controller.kernel.power_noise_sigma_w = 2.0;
  return config;
}

struct StaticScenario {
  /// (true type, node count) of each co-scheduled job.
  std::vector<std::pair<std::string, int>> jobs;
  /// Misclassification: true type -> classified-as (empty = none).  Only
  /// the FIRST matching job is mislabeled (the paper misclassifies one of
  /// the two instances in Figs. 7/8).
  std::string misclassify_type;
  std::string misclassify_as;
  bool misclassify_all = false;

  engine::PolicyRef policy = "characterized";
  double budget_fraction_of_tdp = 0.75;
  int node_count = 4;
  std::uint64_t seed = 1;
};

/// Runs the scenario once; returns per-true-type slowdowns (fraction).
inline std::map<std::string, double> run_static_scenario(const StaticScenario& scenario) {
  cluster::EmulationConfig base = paper_emulation_base();
  base.scheduler.power_aware_admission = false;
  engine::ScenarioSpec spec;
  spec.node_count = scenario.node_count;
  spec.policy = scenario.policy;
  spec.seed = scenario.seed;

  int id = 0;
  int busy_nodes = 0;
  for (const auto& [type, nodes] : scenario.jobs) {
    workload::JobRequest request;
    request.job_id = id++;
    request.type_name = type;
    request.submit_time_s = 0.0;
    request.nodes = nodes;
    busy_nodes += nodes;
    spec.schedule.jobs.push_back(std::move(request));
  }
  spec.schedule.duration_s = 1.0;

  if (!scenario.misclassify_type.empty()) {
    bool labeled = false;
    for (auto& job : spec.schedule.jobs) {
      if (job.type_name == scenario.misclassify_type) {
        if (labeled && !scenario.misclassify_all) continue;
        job.classified_as = scenario.misclassify_as;
        labeled = true;
      }
    }
  }

  // Budget: the stated fraction of TDP over the busy nodes, plus idle
  // headroom for the rest of the cluster.
  spec.static_budget_w =
      busy_nodes * scenario.budget_fraction_of_tdp * workload::kNodeTdpW +
      (scenario.node_count - busy_nodes) * base.manager.idle_node_power_w;

  const engine::RunResult result = engine::run_scenario(spec, base);
  std::map<std::string, double> slowdowns;
  std::map<std::string, int> counts;
  for (const auto& job : result.completed) {
    // Average when multiple instances of a type ran; figures 7/8 report
    // the misclassified instance separately under a suffixed label.
    std::string label = job.request.type_name;
    if (!job.request.classified_as.empty()) {
      label += "=" + job.request.classified_as;
    }
    slowdowns[label] += job.slowdown();
    counts[label] += 1;
  }
  for (auto& [label, total] : slowdowns) total /= counts[label];
  return slowdowns;
}

/// Repeats a scenario over `trials` seeds; returns per-label stats.
inline std::map<std::string, util::RunningStats> run_trials(StaticScenario scenario,
                                                            int trials) {
  std::map<std::string, util::RunningStats> stats;
  for (int trial = 0; trial < trials; ++trial) {
    scenario.seed = 100 + static_cast<std::uint64_t>(trial);
    for (const auto& [label, slowdown] : run_static_scenario(scenario)) {
      stats[label].add(slowdown);
    }
  }
  return stats;
}

}  // namespace anor::bench
