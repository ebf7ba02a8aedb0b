// Process-wide policy registry (DESIGN.md 6j).
//
// The paper's four policies used to be a closed enum dispatched through
// switches; the registry turns the policy set open: a PolicyDescriptor
// bundles everything run_scenario needs to dispatch a policy — a stable
// name, the budgeter factory, the feedback switches and the
// schedule-transform expectations (misclassification labels, the
// Adjusted label-stripping step) — and policies register under their
// name at runtime.
//
// Built-ins vs. the open set:
//   * The four paper policies are registered by the registry constructor
//     itself: `uniform` with budget::even_power_factory, the other three
//     with budget::even_slowdown_factory.
//   * Everything else is admission-gated: run_scenario refuses to
//     dispatch a non-built-in policy until it has passed the admission
//     harness (engine/policy_admission.hpp) — cross-backend parity plus
//     the chaos determinism gate.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "budget/budgeter.hpp"
#include "engine/scenario.hpp"

namespace anor::engine {

/// Everything the runner needs to dispatch one policy.
struct PolicyDescriptor {
  std::string name;
  std::string summary;

  /// True for the four paper policies: registered by the registry itself
  /// and exempt from admission.
  bool builtin = false;

  /// Builds the policy's budgeter; both backends install its product
  /// (instrumented).  Expression-DSL policies get theirs when they
  /// register.
  budget::BudgeterFactory budgeter_factory = budget::even_slowdown_factory();

  /// Emulated backend: job-tier feedback loop + cluster-tier model
  /// updates (the Adjusted policy's switches).
  bool feedback = false;

  /// Schedule-transform expectations:
  /// the policy wants misclassification labels applied to the schedule…
  bool expects_misclassification = false;
  /// …and, on the tabular backend, stripped again before the run (the
  /// Adjusted policy's converged-feedback model).
  bool strip_labels_for_tabular = false;

  /// Non-empty for expression-DSL policies: the cap expression source
  /// (budget/policy_dsl.hpp).  Folded into identity() so two policies
  /// sharing a name but not a definition can never alias.
  std::string dsl_source;

  /// Stable identity for cache keys and conflict detection: the name for
  /// built-ins, "name#<16-hex dsl source hash>" for expression policies,
  /// "name#native" for other custom registrations.
  std::string identity() const;
};

/// The process-wide policy set.  Thread-safe; descriptors are returned by
/// value so concurrent re-registration cannot invalidate a reader.
class PolicyRegistry {
 public:
  /// The one shared instance (constructed with the four built-ins).
  static PolicyRegistry& global();

  /// Register a policy.  Re-registering the same identity is a no-op
  /// (idempotent, so specs carrying inline DSL can resolve repeatedly);
  /// a different definition under an existing name throws ConfigError.
  /// Built-in names are reserved.
  void register_policy(PolicyDescriptor descriptor);

  /// Convenience: register an expression-DSL policy whose factory builds
  /// a budget::ExpressionBudgeter (parse-checks the expression; throws
  /// ConfigError on syntax errors).
  void register_expression_policy(const std::string& name, const std::string& expr,
                                  const std::string& summary = "");

  /// Remove a non-built-in policy (tests; built-ins throw).
  void unregister(const std::string& name);

  bool contains(const std::string& name) const;

  /// Look up by name; throws ConfigError naming the available entries
  /// when unknown.
  PolicyDescriptor get(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;

  /// The four paper policies in legend order (uniform, characterized,
  /// misclassified, adjusted).
  static const std::vector<std::string>& builtin_names();

  /// Admission bookkeeping (set by policy_admission.cpp): a policy is
  /// admitted per-identity, so re-registering a name with a different
  /// definition resets its admission.
  bool is_admitted(const std::string& name) const;
  void mark_admitted(const std::string& name);
  void clear_admission(const std::string& name);

 private:
  PolicyRegistry();

  mutable std::mutex mutex_;
  std::map<std::string, PolicyDescriptor> policies_;
  std::map<std::string, std::string> admitted_;  // name -> identity
};

/// Resolve a PolicyRef against the global registry.  A ref carrying an
/// inline DSL expression auto-registers it first (idempotent).  Throws
/// ConfigError for unknown names or conflicting re-definitions.
PolicyDescriptor resolve_policy(const PolicyRef& ref);

}  // namespace anor::engine
