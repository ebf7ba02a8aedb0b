// Admission harness for non-built-in policies (DESIGN.md 6j).
//
// A registered policy is just data until it proves itself: before
// run_scenario will dispatch a non-built-in policy, the policy must pass
// the same gates the framework's own policies are held to —
//
//   1. budget-envelope sanity: distribute() keeps every cap inside the
//      job's [p_min, p_max], never over-commits the budget, and is
//      bit-identical when repeated (a pure function of its inputs);
//   2. tabular determinism: the full scenario run twice produces
//      byte-identical RunResult artifacts;
//   3. cross-backend parity: the emulated-vs-tabular agreement contract
//      (parity_gaps in engine/scenario.hpp: tracking p90 / mean slowdown
//      within tolerance, QoS verdicts equal) that
//      tests/engine/parity_test.cpp pins for built-ins;
//   4. chaos determinism: the `anorctl chaos --verify-determinism` gate —
//      two closed-loop fault-injection runs with the policy applied must
//      produce identical fault-event traces and power series.
//
// Built-ins bypass the harness (they are pinned by the golden-hash and
// parity suites directly).  Admission is per *identity* (name + DSL
// source hash), so re-registering a name with a different definition
// resets it.  run_scenario/run_scenario_warm call ensure_admitted, which
// admits lazily on first dispatch; `anorctl policy admit` runs it
// explicitly and prints the per-check report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/scenario.hpp"

namespace anor::engine {

/// Knobs for the admission scenario.  Defaults keep a full admission to a
/// few seconds while staying inside the parity harness's operating
/// envelope (budget-constrained Poisson schedule of long NAS types, at
/// the parity suite's 165 W per node; the chaos gate runs the
/// drop10_crash1 plan).
struct AdmissionOptions {
  double duration_s = 480.0;
  int node_count = 6;
  double utilization = 0.75;
  std::uint64_t seed = 7;
  /// Chaos determinism gate (skippable for unit tests that only probe the
  /// cheaper checks).
  bool chaos_gate = true;
  double chaos_duration_s = 120.0;
  int chaos_node_count = 6;
};

struct AdmissionCheck {
  std::string name;
  bool passed = false;
  std::string detail;
};

struct AdmissionReport {
  std::string policy;
  std::string identity;
  std::vector<AdmissionCheck> checks;

  bool passed() const;
  /// One line per check, for logs and the anorctl policy subcommand.
  std::string describe() const;
};

/// Run the harness without touching admission state (pure measurement).
AdmissionReport run_admission(const PolicyRef& policy,
                              const AdmissionOptions& options = {});

/// Run the harness and, on success, mark the policy admitted in the
/// global registry.  Built-ins return a trivially-passed report.
AdmissionReport admit_policy(const PolicyRef& policy,
                             const AdmissionOptions& options = {});

/// The run_scenario gate: built-ins and already-admitted policies return
/// immediately; anything else is admitted lazily (serialized across
/// threads) and a failure throws util::ConfigError carrying the report.
void ensure_admitted(const PolicyRef& policy);

}  // namespace anor::engine
