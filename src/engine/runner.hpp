// ScenarioRunner: one dispatch point from a backend-agnostic ScenarioSpec
// onto either evaluation stack.
//
// `run_scenario` is what the figure benches, the examples, and
// `anorctl run --backend={emulated,tabular}` all call: it applies the
// policy, translates the power objective, runs the selected backend, and
// finalizes the shared RunResult with the spec's tracking normalization —
// so the two stacks stay comparable by construction (the cross-backend
// parity harness in tests/engine/parity_test.cpp gates on it).
#pragma once

#include "cluster/emulation.hpp"
#include "engine/scenario.hpp"
#include "sim/sim_config.hpp"
#include "sim/simulator.hpp"

namespace anor::engine {

/// Configure an emulation for a policy, resolved through the registry
/// (engine/policy_registry.hpp): the budgeter factory and the feedback
/// switches.  The schedule carries the misclassification labels
/// (workload::misclassify).
void apply_policy(cluster::EmulationConfig& config, const PolicyRef& policy);

/// Configure the tabular simulator for a policy: the descriptor's
/// budgeter factory.  The built-in Adjusted policy's converged feedback
/// loop is modeled by budgeting with the true (not classified) models —
/// run_scenario strips the labels before the run
/// (descriptor.strip_labels_for_tabular).
void apply_policy(sim::SimConfig& config, const PolicyRef& policy);

/// Build the emulated cluster for a spec (exposed so tests can
/// single-step it).  `base` carries advanced emulation knobs the
/// backend-agnostic spec does not cover.
cluster::EmulatedCluster make_emulated_cluster(const ScenarioSpec& spec,
                                               const cluster::EmulationConfig& base = {});

/// Map a spec onto the tabular simulator: job types derived from the
/// schedule's workload types (SimJobType::from_job_type), the idle power
/// floor aligned with the emulated platform, the power objective as the
/// target series (a static budget is its one-sample series).
sim::SimConfig make_sim_config(const ScenarioSpec& spec);

/// Build the tabular simulator for a spec (exposed so `anorctl profile`
/// and benches can time `run()` without the construction cost).  Applies
/// the same Adjusted-policy label stripping as run_scenario.
sim::TabularSimulator make_tabular_simulator(const ScenarioSpec& spec);
/// Same, drawing pooled NodeTable/fitted-model/variation resources from
/// `warm` (may be nullptr = cold; see sim::WarmStart).
sim::TabularSimulator make_tabular_simulator(const ScenarioSpec& spec, sim::WarmStart* warm);

/// Run a scenario to completion on its selected backend.
RunResult run_scenario(const ScenarioSpec& spec);
/// Same, with advanced emulation knobs for the emulated backend (ignored
/// by the tabular one).
RunResult run_scenario(const ScenarioSpec& spec, const cluster::EmulationConfig& emulated_base);

/// Run a tabular scenario with warm-start pooling: construction draws on
/// `warm`, and the reusable parts are recycled back into it afterwards.
/// Bit-identical to run_scenario(spec) — the warm-start parity tests pin
/// this.  Emulated-backend or artifact-writing specs fall back to the
/// cold path (still correct, nothing pooled).
RunResult run_scenario_warm(const ScenarioSpec& spec, sim::WarmStart& warm);

}  // namespace anor::engine
