// Timestamped series with the aggregations the evaluation needs:
// power-target tracking error (paper Sec. 4.4.2/6.3) and step statistics.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace anor::util {

/// Append-only (time, value) series.  Timestamps must be non-decreasing;
/// violations throw std::invalid_argument to catch mis-ordered control
/// loops early.
class TimeSeries {
 public:
  void add(double t_s, double value);
  void clear();

  std::size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }

  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }

  double front_time() const { return times_.front(); }

  /// Value at time t via zero-order hold (value of the latest sample at or
  /// before t).  Clamps to the first/last sample outside the range.
  double sample_at(double t_s) const;

  /// Mean of values (unweighted).
  double mean() const;

  /// Resample onto a uniform grid [t0, t1] with the given step using
  /// zero-order hold.  step must be positive.
  TimeSeries resample(double t0_s, double t1_s, double step_s) const;

 private:
  std::vector<double> times_;
  std::vector<double> values_;
};

/// Power-tracking error statistics, as the paper defines them:
///   error(t) = |measured(t) − target(t)| / reserve
/// evaluated on the measured series' timestamps (target sampled with
/// zero-order hold).
struct TrackingErrorStats {
  double mean_error = 0.0;          // mean of error(t)
  double p90_error = 0.0;           // 90th percentile of error(t)
  double max_error = 0.0;           // worst-case error
  double fraction_within_30 = 0.0;  // fraction of time error <= 0.30
  std::size_t samples = 0;
};

TrackingErrorStats tracking_error(const TimeSeries& measured, const TimeSeries& target,
                                  double reserve_w);

}  // namespace anor::util
