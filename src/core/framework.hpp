// ANOR framework facade — the primary public API.
//
// An Experiment describes what the paper calls a scenario: a job schedule
// (with optional misclassification labels), a power objective (static
// budget or a time-varying demand-response target), a policy, and the
// platform.  `run_experiment` assembles the full two-tier stack on the
// emulated cluster and returns the measurements every figure is built
// from.  See examples/quickstart.cpp for the 30-line version.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/emulation.hpp"
#include "core/policies.hpp"
#include "engine/runner.hpp"
#include "util/time_series.hpp"
#include "workload/regulation.hpp"
#include "workload/schedule.hpp"

namespace anor::core {

struct Experiment {
  /// Job arrivals.  Misclassification experiments label jobs via
  /// workload::misclassify before running.
  workload::Schedule schedule;

  PolicyRef policy;

  /// Static cluster power budget, watts.  Mutually exclusive with
  /// `targets`; leave both unset to run unconstrained.
  std::optional<double> static_budget_w;
  /// Time-varying power targets.
  std::optional<util::TimeSeries> targets;

  int node_count = 16;
  double perf_variation_sigma = 0.0;
  std::uint64_t seed = 1;

  /// Non-empty: write a run artifact directory (metrics.csv time series,
  /// metrics.json, trace.json, trace.jsonl, manifest.json) sampled from
  /// the global telemetry registry at `artifact_cadence_s`.
  std::string artifact_dir;
  double artifact_cadence_s = 1.0;

  /// Advanced knobs (defaults match the paper's setup).
  cluster::EmulationConfig base;
};

/// Lower an Experiment into the engine's backend-agnostic ScenarioSpec
/// (backend kEmulated; `base` travels separately through run_scenario's
/// second parameter).
engine::ScenarioSpec to_scenario_spec(const Experiment& experiment);

/// Build the emulated cluster for an experiment (exposed so tests can
/// single-step it).
cluster::EmulatedCluster make_cluster(const Experiment& experiment);

/// Run an experiment to completion (through engine::run_scenario).
cluster::EmulationResult run_experiment(const Experiment& experiment);

/// A constant-power target series over a horizon (static budget runs are
/// expressed as degenerate tracking runs, as on the real cluster).
util::TimeSeries constant_targets(double power_w, double horizon_s, double period_s = 4.0);

/// The paper's Fig. 9 setup: one hour of targets in [2.3, 4.5] kW updated
/// every 4 s around the committed mean, derived from a seeded regulation
/// walk.
util::TimeSeries fig9_targets(std::uint64_t seed, double horizon_s = 3600.0);

/// The demand-response bid implied by a 16-node cluster's cap range
/// (the Fig. 9 committed flexibility).
workload::DemandResponseBid fig9_bid();

}  // namespace anor::core
