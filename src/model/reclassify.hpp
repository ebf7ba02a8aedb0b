// Misclassification detection from online epoch observations.
//
// Paper Sec. 6.1.2: "it is important ... to have a method to detect the
// misclassification and adjust the power budget."  A full quadratic refit
// needs observations at >= 3 distinct caps, which a static shared budget
// never provides; this detector handles that regime.  It compares observed
// seconds-per-epoch against each precharacterized type's absolute curve at
// the observed caps and, when the currently served model diverges beyond a
// threshold, proposes the best-matching known curve instead.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "model/modeler.hpp"
#include "model/perf_model.hpp"

namespace anor::model {

struct ReclassifierConfig {
  /// Mean relative error above which the current model counts as diverged.
  double divergence_threshold = 0.20;
  /// Require at least this many epochs of evidence before reclassifying.
  long min_epochs = 10;
  /// A proposed replacement must fit at least this much better
  /// (relative-error ratio) than the current model.
  double improvement_factor = 0.5;
};

struct NamedModel {
  std::string name;
  PowerPerfModel model;
};

class Reclassifier {
 public:
  Reclassifier(std::vector<NamedModel> candidates, ReclassifierConfig config = {});

  /// Epoch-weighted mean relative error of a model against cap-pooled
  /// observations (aggregate_by_cap): individual spans carry sampling
  /// quantization, pooled rates do not.
  static double mean_relative_error(const PowerPerfModel& model,
                                    std::span<const CapAggregate> pool);

  /// Propose a replacement when the current model has diverged and a
  /// candidate explains the observations much better.  nullopt otherwise.
  std::optional<NamedModel> suggest(std::span<const EpochObservation> observations,
                                    const PowerPerfModel& current) const;

  /// Every candidate as (mean relative error against `pool`, index into
  /// candidates()), ascending by error, replacing the contents of
  /// `ranking`.  Callers needing an ambiguity check (is the best
  /// decisively better than the runner-up?) use this directly.
  void ranked(std::span<const CapAggregate> pool,
              std::vector<std::pair<double, std::size_t>>& ranking) const;

  const ReclassifierConfig& config() const { return config_; }

  const std::vector<NamedModel>& candidates() const { return candidates_; }

 private:
  std::vector<NamedModel> candidates_;
  ReclassifierConfig config_;
};

/// The standard candidate set: all registered NPB job types' ground-truth
/// curves.  Fitted once per process (a pure function of the static NAS
/// table) and shared by every caller.
const std::vector<NamedModel>& standard_candidates();

/// Epoch-weighted mean relative disagreement between two models'
/// predictions over the caps the observations cover.  Two candidates
/// below a small distance are interchangeable for budgeting purposes —
/// picking either is not an ambiguity.
double model_prediction_distance(const PowerPerfModel& a, const PowerPerfModel& b,
                                 std::span<const EpochObservation> observations);

}  // namespace anor::model
