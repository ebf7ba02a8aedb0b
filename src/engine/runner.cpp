#include "engine/runner.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "engine/policy_admission.hpp"
#include "engine/policy_registry.hpp"
#include "sim/simulator.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"

namespace anor::engine {

namespace {

/// The spec's power objective as a target series: a static budget is a
/// one-sample series, which holds its value at every t.
util::TimeSeries spec_targets(const ScenarioSpec& spec) {
  if (!spec.static_budget_w) return spec.targets;
  util::TimeSeries flat;
  flat.add(0.0, *spec.static_budget_w);
  return flat;
}

}  // namespace

void apply_policy(cluster::EmulationConfig& config, const PolicyRef& policy) {
  PolicyDescriptor descriptor = resolve_policy(policy);
  config.manager.budgeter_factory = std::move(descriptor.budgeter_factory);
  config.manager.accept_model_updates = descriptor.feedback;
  config.endpoint.feedback_enabled = descriptor.feedback;
}

void apply_policy(sim::SimConfig& config, const PolicyRef& policy) {
  config.budgeter_factory = resolve_policy(policy).budgeter_factory;
}

cluster::EmulatedCluster make_emulated_cluster(const ScenarioSpec& spec,
                                               const cluster::EmulationConfig& base) {
  spec.validate();
  cluster::EmulationConfig config = base;
  config.node_count = spec.node_count;
  config.perf_variation_sigma = spec.perf_variation_sigma;
  config.seed = spec.seed;
  apply_policy(config, spec.policy);

  cluster::EmulatedCluster emu(config, spec.schedule);
  emu.set_power_targets(spec_targets(spec));
  return emu;
}

sim::SimConfig make_sim_config(const ScenarioSpec& spec) {
  spec.validate();
  sim::SimConfig config;
  config.node_count = spec.node_count;
  config.perf_variation_sigma = spec.perf_variation_sigma;
  // The emulated platform's nodes idle at 2 x 18 W packages; align the
  // tabular floor with it so the two backends see the same headroom.
  config.idle_power_w = cluster::EmulationConfig{}.manager.idle_node_power_w;

  // Horizon: the schedule's generation window (or the last arrival).
  double horizon = spec.schedule.duration_s;
  for (const workload::JobRequest& job : spec.schedule.jobs) {
    horizon = std::max(horizon, job.submit_time_s);
  }
  if (horizon > 0.0) config.duration_s = horizon;

  // Job types referenced by the schedule — true names and classified
  // labels both — mapped onto the simulator's linear model.  Sorted for a
  // deterministic type table regardless of arrival order.
  std::set<std::string> names;
  for (const workload::JobRequest& job : spec.schedule.jobs) {
    names.insert(job.type_name);
    if (!job.classified_as.empty()) names.insert(job.classified_as);
  }
  if (names.empty()) throw util::ConfigError("make_sim_config: schedule names no job types");
  for (const std::string& name : names) {
    config.job_types.push_back(sim::SimJobType::from_job_type(workload::find_job_type(name)));
  }

  apply_policy(config, spec.policy);

  config.power_targets = spec_targets(spec);
  config.tracking_warmup_s = spec.tracking_warmup_s;
  config.tracking_reserve_w = spec.tracking_reserve_w;
  return config;
}

sim::TabularSimulator make_tabular_simulator(const ScenarioSpec& spec) {
  return make_tabular_simulator(spec, nullptr);
}

sim::TabularSimulator make_tabular_simulator(const ScenarioSpec& spec, sim::WarmStart* warm) {
  const sim::SimConfig config = make_sim_config(spec);
  workload::Schedule schedule = spec.schedule;
  if (resolve_policy(spec.policy).strip_labels_for_tabular) {
    // Converged feedback (the built-in Adjusted policy): the budgeter
    // sees the true types.
    for (workload::JobRequest& job : schedule.jobs) job.classified_as.clear();
  }
  return sim::TabularSimulator(config, std::move(schedule),
                               util::Rng(spec.seed).child("sim"), warm);
}

RunResult run_scenario(const ScenarioSpec& spec) {
  return run_scenario(spec, cluster::EmulationConfig{});
}

RunResult run_scenario(const ScenarioSpec& spec,
                       const cluster::EmulationConfig& emulated_base) {
  spec.validate();
  // Non-built-in policies must have passed the admission harness (parity
  // + chaos determinism) before the engine will dispatch them.
  ensure_admitted(spec.policy);
  std::unique_ptr<telemetry::RunArtifactWriter> artifacts;
  if (!spec.artifact_dir.empty()) {
    telemetry::RunArtifactConfig artifact_config;
    artifact_config.dir = spec.artifact_dir;
    artifact_config.cadence_s = spec.artifact_cadence_s;
    artifact_config.run_name = spec.name;
    artifacts = std::make_unique<telemetry::RunArtifactWriter>(
        artifact_config, telemetry::MetricsRegistry::global(),
        &telemetry::TraceRecorder::global());
  }

  RunResult result;
  if (spec.backend == Backend::kEmulated) {
    cluster::EmulatedCluster emu = make_emulated_cluster(spec, emulated_base);
    if (artifacts != nullptr) emu.attach_artifacts(artifacts.get());
    result = emu.run();
    if (artifacts != nullptr) emu.attach_artifacts(nullptr);
  } else {
    sim::TabularSimulator simulator = make_tabular_simulator(spec);
    simulator.set_artifacts(artifacts.get());
    result = simulator.run();
    simulator.set_artifacts(nullptr);
  }
  if (artifacts != nullptr) artifacts->finalize();

  // Re-finalize tracking with the spec's normalization so verdicts are
  // comparable across backends (a zero reserve/warmup reproduces each
  // backend's own aggregation exactly).
  finalize_tracking(result, spec.tracking_reserve_w, spec.tracking_warmup_s);
  return result;
}

RunResult run_scenario_warm(const ScenarioSpec& spec, sim::WarmStart& warm) {
  spec.validate();
  ensure_admitted(spec.policy);
  if (spec.backend != Backend::kTabular || !spec.artifact_dir.empty()) {
    // Nothing to pool for the emulated tier, and artifact runs need the
    // writer wiring run_scenario owns; both stay on the cold path.
    return run_scenario(spec);
  }
  sim::TabularSimulator simulator = make_tabular_simulator(spec, &warm);
  RunResult result = simulator.run();
  simulator.recycle(warm);
  finalize_tracking(result, spec.tracking_reserve_w, spec.tracking_warmup_s);
  return result;
}

}  // namespace anor::engine
