// Sweep grids: base scenario × axes → N ScenarioSpecs (DESIGN.md 6i).
//
// The ROADMAP's sweep/service north-star and the controller-autotuning
// papers both want "hundreds of runs over policy × signal × utilization ×
// node count" as one cheap batch.  A grid (JSON `anor.sweep.v1`) is a
// base ScenarioSpec plus a list of axes; expansion is the cartesian
// product in declaration order (first axis slowest), so cell order, cell
// names, and the per-cell specs are all deterministic functions of the
// grid document.
//
// Cells may carry a fixed schedule in the base spec, or ask the grid to
// *generate* workload (Poisson schedule from the standard NAS types) and
// grid signals (static budget / demand-response / carbon / tariff
// targets) per cell.  The SweepMaterializer memoizes generated schedules
// and target series by their semantic inputs, so thirty-two cells that
// differ only in policy share one generated workload table instead of
// resampling it thirty-two times — the "shared immutable workload tables"
// half of the warm-start story.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/scenario.hpp"
#include "util/json.hpp"

namespace anor::engine::sweep {

/// Per-cell workload/signal generation knobs (grid "generate" object).
struct SweepGenerate {
  bool enabled = false;
  double duration_s = 3600.0;
  double utilization = 0.8;
  /// Power objective: "none" (unconstrained), "budget" (static
  /// budget_per_node_w × nodes), "dr" (random-walk regulation around a
  /// bid), "carbon" (carbon-intensity-following targets), "tariff"
  /// (time-of-use tariff targets).
  std::string signal = "none";
  bool long_types_only = true;
  double budget_per_node_w = 150.0;
  /// Applied only when the cell's policy expects labels
  /// (misclassified/adjusted): every TRUE_TYPE instance is labeled
  /// CLASSIFIED_AS, mirroring `anorctl run --misclassify`.
  std::string misclassify_true = "bt.D.x";
  std::string misclassify_as = "is.D.x";
};

/// One swept dimension: a spec/generate field and its values.  Supported
/// fields: policy, backend, signal, utilization, duration_s, node_count,
/// seed, perf_variation_sigma, static_budget_w.
struct SweepAxis {
  std::string field;
  std::vector<util::Json> values;
};

/// One point of the expanded grid.
struct SweepCell {
  std::size_t index = 0;
  std::string name;  // "policy=uniform/utilization=0.7"
  std::vector<std::pair<std::string, util::Json>> assignment;
};

/// A custom policy defined by the grid document itself (grid "policies"
/// array): registered in the global PolicyRegistry before the base spec
/// and axes are parsed, so axis values can reference it by name.
struct SweepPolicyDef {
  std::string name;
  std::string expr;  // expression-DSL source (budget/policy_dsl.hpp)
  std::string summary;
};

struct SweepGrid {
  std::string name = "sweep";
  ScenarioSpec base;
  SweepGenerate generate;
  std::vector<SweepPolicyDef> policies;
  std::vector<SweepAxis> axes;

  /// Parse `anor.sweep.v1`: {schema, name, policies: [{name, expr,
  /// summary}], base: <anor.scenario.v1 fields>, generate: {...},
  /// axes: [{field, values: [...]}]}.  The base object may omit the
  /// schedule when generation is enabled.  Policy definitions are
  /// registered (idempotently) as a side effect.  Throws
  /// util::ConfigError on unknown axis fields or malformed values.
  static SweepGrid from_json(const util::Json& json);

  std::size_t cell_count() const;
  /// Cartesian expansion, first axis slowest; deterministic names/order.
  std::vector<SweepCell> expand() const;
};

/// Cell → runnable ScenarioSpec, sharing generated workload/target tables
/// across cells.  materialize() is thread-safe (the executor's run
/// workers materialize concurrently); memoized tables are returned by
/// copy so per-run mutation (policy label stripping, sorting) cannot leak
/// between cells.  A fresh materializer per cell reproduces the cold
/// no-sharing path bit-for-bit (the bench's sequential baseline).
class SweepMaterializer {
 public:
  explicit SweepMaterializer(const SweepGrid& grid) : grid_(grid) {}

  ScenarioSpec materialize(const SweepCell& cell);

 private:
  const SweepGrid& grid_;
  std::mutex mutex_;
  std::map<std::string, workload::Schedule> schedules_;
  std::map<std::string, util::TimeSeries> targets_;
};

/// Validate an axis field name (shared by from_json and tests).
bool is_sweep_axis_field(const std::string& field);

}  // namespace anor::engine::sweep
