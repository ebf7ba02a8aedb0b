#include "model/reclassify.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "workload/job_type.hpp"

namespace anor::model {

Reclassifier::Reclassifier(std::vector<NamedModel> candidates, ReclassifierConfig config)
    : candidates_(std::move(candidates)), config_(config) {}

double Reclassifier::mean_relative_error(const PowerPerfModel& model,
                                         std::span<const CapAggregate> pool) {
  // Buckets weigh in by their epoch counts.
  double total = 0.0;
  double weight = 0.0;
  for (const CapAggregate& aggregate : pool) {
    if (aggregate.sec_per_epoch <= 0.0) continue;
    const double predicted = model.time_at(aggregate.cap_w);
    const double w = static_cast<double>(aggregate.epochs);
    total += w * std::abs(predicted - aggregate.sec_per_epoch) / aggregate.sec_per_epoch;
    weight += w;
  }
  return weight > 0.0 ? total / weight : 0.0;
}

void Reclassifier::ranked(std::span<const CapAggregate> pool,
                          std::vector<std::pair<double, std::size_t>>& ranking) const {
  ranking.clear();
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    ranking.emplace_back(mean_relative_error(candidates_[i].model, pool), i);
  }
  // The comparator reads the error alone, so where ties land depends only
  // on the errors, whatever the pair carries; a stable sort would order
  // ties differently and can change which candidate wins.
  std::sort(ranking.begin(), ranking.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

std::optional<NamedModel> Reclassifier::suggest(std::span<const EpochObservation> observations,
                                                const PowerPerfModel& current) const {
  long epochs = 0;
  for (const EpochObservation& obs : observations) epochs += obs.epochs;
  if (epochs < config_.min_epochs) return std::nullopt;

  std::vector<CapAggregate> pool;
  aggregate_by_cap(observations, pool);
  const double current_error = mean_relative_error(current, pool);
  if (current_error <= config_.divergence_threshold) return std::nullopt;

  const NamedModel* best = nullptr;
  double best_error = std::numeric_limits<double>::infinity();
  for (const NamedModel& candidate : candidates_) {
    const double error = mean_relative_error(candidate.model, pool);
    if (error < best_error) {
      best_error = error;
      best = &candidate;
    }
  }
  if (best == nullptr) return std::nullopt;
  if (best_error > current_error * config_.improvement_factor) return std::nullopt;
  return *best;
}

double model_prediction_distance(const PowerPerfModel& a, const PowerPerfModel& b,
                                 std::span<const EpochObservation> observations) {
  std::vector<CapAggregate> pool;
  aggregate_by_cap(observations, pool);
  double total = 0.0;
  double weight = 0.0;
  for (const CapAggregate& aggregate : pool) {
    const double pb = b.time_at(aggregate.cap_w);
    if (pb <= 0.0) continue;
    const double w = static_cast<double>(aggregate.epochs);
    total += w * std::abs(a.time_at(aggregate.cap_w) - pb) / pb;
    weight += w;
  }
  return weight > 0.0 ? total / weight : 0.0;
}

const std::vector<NamedModel>& standard_candidates() {
  static const std::vector<NamedModel> candidates = [] {
    std::vector<NamedModel> fitted;
    for (const workload::JobType& type : workload::nas_job_types()) {
      fitted.push_back(NamedModel{type.name, PowerPerfModel::from_job_type(type)});
    }
    return fitted;
  }();
  return candidates;
}

}  // namespace anor::model
