#include "sched/qos.hpp"

#include "util/stats.hpp"

namespace anor::sched {

void QosEvaluator::add(JobQosRecord record) { records_.push_back(std::move(record)); }

std::map<std::string, std::vector<double>> QosEvaluator::degradation_by_type() const {
  std::map<std::string, std::vector<double>> by_type;
  for (const JobQosRecord& r : records_) {
    by_type[r.type_name].push_back(r.qos_degradation());
  }
  return by_type;
}

std::map<std::string, double> QosEvaluator::percentile_by_type(double p) const {
  std::map<std::string, double> result;
  for (auto& [type, values] : degradation_by_type()) {
    result[type] = util::percentile(values, p);
  }
  return result;
}

bool QosEvaluator::satisfied() const {
  return summarize(constraint_.probability * 100.0).satisfied;
}

double QosEvaluator::worst_quantile() const {
  return summarize(constraint_.probability * 100.0).worst_quantile;
}

QosSummary QosEvaluator::summarize(double p) const {
  const double constraint_p = constraint_.probability * 100.0;
  QosSummary summary;
  for (auto& [type, values] : degradation_by_type()) {
    const double q = util::percentile(values, constraint_p);
    if (q > constraint_.limit) summary.satisfied = false;
    if (q > summary.worst_quantile) summary.worst_quantile = q;
    summary.percentile_by_type[type] = p == constraint_p ? q : util::percentile(values, p);
  }
  return summary;
}

}  // namespace anor::sched
