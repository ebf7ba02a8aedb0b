#include "model/default_models.hpp"

#include <algorithm>
#include <vector>

#include "workload/job_type.hpp"

namespace anor::model {

std::string to_string(DefaultModelPolicy policy) {
  switch (policy) {
    case DefaultModelPolicy::kLeastSensitive: return "least-sensitive";
    case DefaultModelPolicy::kMostSensitive: return "most-sensitive";
    case DefaultModelPolicy::kMedian: return "median";
  }
  return "?";
}

PowerPerfModel default_model(DefaultModelPolicy policy) {
  const auto& types = workload::nas_job_types();
  std::vector<const workload::JobType*> sorted;
  sorted.reserve(types.size());
  for (const auto& t : types) sorted.push_back(&t);
  std::sort(sorted.begin(), sorted.end(),
            [](const workload::JobType* x, const workload::JobType* y) {
              return x->max_slowdown() < y->max_slowdown();
            });
  const workload::JobType* chosen = nullptr;
  switch (policy) {
    case DefaultModelPolicy::kLeastSensitive: chosen = sorted.front(); break;
    case DefaultModelPolicy::kMostSensitive: chosen = sorted.back(); break;
    case DefaultModelPolicy::kMedian: chosen = sorted[sorted.size() / 2]; break;
  }
  return PowerPerfModel::from_job_type(*chosen);
}

PowerPerfModel model_for_class(const std::string& classified_as) {
  // One fit per NAS type per process, in table order; the static's
  // initialization is thread-safe for concurrent sweep workers.
  static const std::vector<PowerPerfModel> fitted = [] {
    std::vector<PowerPerfModel> models;
    for (const workload::JobType& type : workload::nas_job_types()) {
      models.push_back(PowerPerfModel::from_job_type(type));
    }
    return models;
  }();
  // find_job_type throws for unknown names and otherwise returns an
  // element of the NAS table.
  const workload::JobType& type = workload::find_job_type(classified_as);
  return fitted[static_cast<std::size_t>(&type - workload::nas_job_types().data())];
}

}  // namespace anor::model
