// Backend-agnostic scenario description and the single result schema.
//
// The paper evaluates one control stack in two guises — the 16-node
// emulated cluster (Sec. 4-5) and the 1000-node tabular simulator
// (Sec. 5.6).  A ScenarioSpec captures what both share: the job schedule
// (with misclassification labels), the policy, the power objective
// (static budget or a time-varying target series), the platform size and
// seed, and artifact options — plus a Backend selector.  Both backends
// produce the same RunResult through the shared aggregation helpers
// below, so a scenario validated in simulation is comparable, field for
// field, with the same scenario run on the emulated cluster.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "geopm/report.hpp"
#include "sched/qos.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/time_series.hpp"
#include "workload/schedule.hpp"

namespace anor::engine {

/// Which stack executes the scenario.
enum class Backend { kEmulated, kTabular };

std::string to_string(Backend backend);
Backend backend_from_string(const std::string& name);

/// Reference to a policy in the process-wide PolicyRegistry
/// (engine/policy_registry.hpp).  The four paper policies (Fig. 6-10
/// legends) are registered as built-ins:
///
///   uniform        — performance-agnostic even-power budgeter.
///   characterized  — performance-aware even-slowdown budgeter with
///                    correct precharacterized models.
///   misclassified  — even-slowdown, but (some) jobs carry a wrong
///                    classification and feedback is disabled.
///   adjusted       — misclassified, with the job-tier feedback loop
///                    enabled so the cluster tier recovers.
///
/// Any other name must be registered (natively or as an expression-DSL
/// policy) before dispatch.  A non-empty `dsl` makes the reference
/// self-contained: run_scenario auto-registers `name` with that
/// expression, so specs and sweep grids can carry custom policies as
/// data.  Implicitly constructible from a string so call sites read
/// `spec.policy = "uniform"`.
struct PolicyRef {
  std::string name = "characterized";
  /// Expression-DSL source (budget/policy_dsl.hpp); empty for built-in
  /// or natively registered policies.
  std::string dsl;

  PolicyRef() = default;
  PolicyRef(std::string name_in) : name(std::move(name_in)) {}  // NOLINT(google-explicit-constructor)
  PolicyRef(const char* name_in) : name(name_in) {}             // NOLINT(google-explicit-constructor)
  PolicyRef(std::string name_in, std::string dsl_in)
      : name(std::move(name_in)), dsl(std::move(dsl_in)) {}

  friend bool operator==(const PolicyRef& a, const PolicyRef& b) {
    return a.name == b.name && a.dsl == b.dsl;
  }
  friend bool operator!=(const PolicyRef& a, const PolicyRef& b) { return !(a == b); }
};

/// The policy's registry name.
std::string to_string(const PolicyRef& policy);

/// Validate `name` against the registry and return a reference to it.
/// Throws util::ConfigError naming the available entries when unknown.
PolicyRef policy_from_string(const std::string& name);

/// Whether the policy expects the schedule to carry misclassification
/// labels (resolves through the registry; defined in policy_registry.cpp).
bool expects_misclassification(const PolicyRef& policy);

/// Parse a spec/grid "policy" value: either a registry name string or an
/// object {"name": ..., "expr": ...} carrying an inline expression-DSL
/// definition (the expression is parse-checked here).
PolicyRef policy_ref_from_json(const util::Json& json);
/// Inverse: a bare string for plain references, the object form when the
/// reference carries an inline expression.
util::Json policy_ref_to_json(const PolicyRef& policy);

/// One finished job, as both backends record it.  The tabular backend
/// fills the report with what its linear model knows (runtime, nodes,
/// average cap); the emulated backend attaches the full GEOPM-style
/// report.
struct CompletedJob {
  workload::JobRequest request;
  geopm::JobReport report;
  double submit_s = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
  /// Unconstrained runtime reference for slowdown accounting.
  double reference_runtime_s = 0.0;

  double slowdown() const {
    return reference_runtime_s > 0.0 ? (end_s - start_s) / reference_runtime_s - 1.0 : 0.0;
  }
};

/// What a scenario run measures, identically on either backend.
struct RunResult {
  std::vector<CompletedJob> completed;
  util::TimeSeries power_w;   // measured cluster power
  util::TimeSeries target_w;  // power target (empty when unconstrained)
  util::TrackingErrorStats tracking;
  sched::QosEvaluator qos;
  double end_time_s = 0.0;
  int jobs_submitted = 0;
  int jobs_completed = 0;
  /// Busy-node fraction averaged over time.
  double mean_utilization = 0.0;

  /// Mean/stddev of slowdown per job type.
  std::map<std::string, util::RunningStats> slowdown_by_type() const;
};

/// A backend-agnostic scenario: everything `run_scenario` needs.
struct ScenarioSpec {
  std::string name = "scenario";
  Backend backend = Backend::kEmulated;

  /// Job arrivals; misclassification experiments label jobs via
  /// workload::misclassify before running.
  workload::Schedule schedule;

  PolicyRef policy;

  /// Static cluster power budget, watts.  Mutually exclusive with
  /// `targets`; leave both unset to run unconstrained.
  std::optional<double> static_budget_w;
  /// Time-varying power targets (empty = none).
  util::TimeSeries targets;

  int node_count = 16;
  double perf_variation_sigma = 0.0;
  std::uint64_t seed = 1;

  /// Ignored: runs step serially (DESIGN.md 6h).  Kept so existing
  /// callers that still assign it compile; no reader, writer or backend
  /// looks at it, and spec files that carry the key load as before.
  int step_workers = 0;

  /// Exclude this initial window from tracking-error statistics (before
  /// the queue fills, a loaded-power target is unreachable).
  double tracking_warmup_s = 0.0;
  /// Error normalization for tracking stats; <= 0 derives half the
  /// observed target span (floored at 1 W).
  double tracking_reserve_w = 0.0;

  /// Non-empty: write a run artifact directory (metrics.csv, metrics.json,
  /// trace.json(l), manifest.json) sampled at `artifact_cadence_s`.
  std::string artifact_dir;
  double artifact_cadence_s = 1.0;

  /// Throws util::ConfigError on contradictions (budget and targets both
  /// set, empty schedule on a tabular run, non-positive node count, a
  /// negative or repeated job id, a job with negative `nodes` or wider
  /// than the cluster).
  void validate() const;
};

/// JSON round-trip (includes the schedule with misclassification labels,
/// the targets series, and the backend/policy selectors).
/// scenario_spec_from_json is scenario_fields_from_json then validate().
util::Json scenario_spec_to_json(const ScenarioSpec& spec);
ScenarioSpec scenario_spec_from_json(const util::Json& json);

/// The field parse alone: every anor.scenario.v1 field, unknown keys
/// ignored, no validate().  A sweep grid reads its base through it (the
/// base may leave the schedule to the grid's generate block; each cell is
/// validated once materialized).
ScenarioSpec scenario_fields_from_json(const util::Json& json);

// --- shared aggregation path -------------------------------------------
//
// Both backends finish a run through these helpers instead of private
// reimplementations, so the statistics cannot drift apart.

/// Compute `result.tracking` from the recorded power/target series:
/// samples at or after `warmup_s`, error normalized by `reserve_w`
/// (<= 0 derives half the observed target span, floored at 1 W).  A run
/// without both series recorded leaves the stats zeroed.
void finalize_tracking(RunResult& result, double reserve_w, double warmup_s);

/// Serialize a finished run — per-job records, QoS, tracking statistics,
/// utilization, and the decimated power/target series — as the one
/// artifact schema (`anor.run_result.v1`) both backends emit.  The
/// document is streamed, never built as a tree; write_run_result_json
/// emits it as the next value of an enclosing document.
util::JsonText run_result_json(const RunResult& result, double series_decimation_s = 30.0);
void write_run_result_json(util::JsonWriter& out, const RunResult& result,
                           double series_decimation_s = 30.0);

/// The pieces the artifact shares with the cache form: the tracking
/// statistics, and a series as {"t_s": [...], "value": [...]} keeping a
/// sample once `decimation_s` has passed since the last kept one (0 keeps
/// every sample).
void write_tracking_json(util::JsonWriter& out, const util::TrackingErrorStats& tracking);
void write_series_json(util::JsonWriter& out, const util::TimeSeries& series,
                       double decimation_s);

/// Write the artifact to a file (indented, as save_json_file).
void save_run_result(const std::string& path, const RunResult& result);

// --- the cross-backend parity contract ---------------------------------
//
// One scenario run on both backends must agree on what the paper's
// results rest on: tracking error, mean job slowdown and the QoS verdict.
// `anorctl parity`, the admission harness (policy_admission.hpp) and
// tests/engine/parity_test.cpp all judge a pair of runs here.

/// Largest gap allowed between the backends' p90 tracking errors (a
/// fraction of the reserve) and between their mean job slowdowns; a gap
/// passes only when strictly below.
inline constexpr double kParityTrackingTol = 0.25;
inline constexpr double kParitySlowdownTol = 0.25;

/// What the contract compares of one run.
struct ParitySummary {
  double mean_slowdown = 0.0;
  double p90_tracking = 0.0;
  bool qos_ok = false;
};
ParitySummary parity_summary(const RunResult& result);

/// The verdict on an emulated and a tabular run of one scenario: it
/// passes when tracking_ok(), slowdown_ok() and qos_agree all hold.
struct ParityGaps {
  double tracking = 0.0;
  double slowdown = 0.0;
  bool qos_agree = false;

  bool tracking_ok() const { return tracking < kParityTrackingTol; }
  bool slowdown_ok() const { return slowdown < kParitySlowdownTol; }
};
ParityGaps parity_gaps(const ParitySummary& emulated, const ParitySummary& tabular);

}  // namespace anor::engine
