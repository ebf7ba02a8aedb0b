// QoS accounting (paper Sec. 5.2).
//
// A job's QoS degradation is
//     Q = (T_sojourn - T_min) / T_min
// where T_sojourn is submission-to-completion time and T_min the job's
// unconstrained execution time.  The experiments require Q <= 5 with 90 %
// probability per job type.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace anor::sched {

struct JobQosRecord {
  int job_id = 0;
  std::string type_name;
  double submit_s = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
  double t_min_s = 0.0;  // unconstrained execution time

  double sojourn_s() const { return end_s - submit_s; }
  double qos_degradation() const {
    return t_min_s > 0.0 ? (sojourn_s() - t_min_s) / t_min_s : 0.0;
  }
};

struct QosConstraint {
  double limit = 5.0;        // Q must not exceed this ...
  double probability = 0.9;  // ... with at least this probability
};

/// Per-type percentiles and the constraint verdict from one grouping pass.
struct QosSummary {
  std::map<std::string, double> percentile_by_type;
  bool satisfied = true;
  double worst_quantile = 0.0;
};

class QosEvaluator {
 public:
  explicit QosEvaluator(QosConstraint constraint = {}) : constraint_(constraint) {}

  void add(JobQosRecord record);
  /// Room for `jobs` records without reallocating.
  void reserve(std::size_t jobs) { records_.reserve(jobs); }
  std::size_t job_count() const { return records_.size(); }
  const std::vector<JobQosRecord>& records() const { return records_; }
  const QosConstraint& constraint() const { return constraint_; }

  /// Per-type QoS degradation values.
  std::map<std::string, std::vector<double>> degradation_by_type() const;

  /// Per-type percentile of Q (the paper plots the 90th).
  std::map<std::string, double> percentile_by_type(double p) const;

  /// True when every type satisfies the constraint, i.e. the
  /// `probability` quantile of Q stays at or below `limit`.
  bool satisfied() const;

  /// Worst (highest) constraint-quantile Q across types; 0 if no jobs.
  double worst_quantile() const;

  /// percentile_by_type(p), satisfied() and worst_quantile() at once,
  /// grouping the records by type a single time.
  QosSummary summarize(double p) const;

 private:
  QosConstraint constraint_;
  std::vector<JobQosRecord> records_;
};

}  // namespace anor::sched
