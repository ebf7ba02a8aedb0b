// Demand-response regulation signals and power-target series.
//
// The grid sends a regulation signal y(t) in [-1, 1]; the cluster's power
// target is P_target(t) = P_avg + R * y(t) where (P_avg, R) is the bid the
// cluster placed for the hour (paper Sec. 5.6).  New targets arrive every
// few seconds (4 s in the paper's real-cluster experiment, Sec. 6.3).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/time_series.hpp"

namespace anor::workload {

/// Abstract regulation signal.
class RegulationSignal {
 public:
  virtual ~RegulationSignal() = default;
  /// y(t) in [-1, 1].
  virtual double at(double t_s) const = 0;
};

/// Bounded random walk, piecewise-constant over `step_s` intervals, with
/// reflection at +/-1 — the texture of a frequency-regulation signal.
/// Deterministic in (seed, t): the walk is precomputed over the horizon.
class RandomWalkRegulation final : public RegulationSignal {
 public:
  RandomWalkRegulation(util::Rng rng, double horizon_s, double step_s = 4.0,
                       double volatility = 0.18);
  double at(double t_s) const override;

  double step_s() const { return step_s_; }

 private:
  double step_s_;
  std::vector<double> samples_;
};

/// Sum of two sinusoids; useful for tests that need a closed-form signal.
class SinusoidRegulation final : public RegulationSignal {
 public:
  SinusoidRegulation(double period1_s, double period2_s = 0.0, double weight2 = 0.0);
  double at(double t_s) const override;

 private:
  double period1_s_;
  double period2_s_;
  double weight2_;
};

/// A demand-response bid: mean power and symmetric reserve, in watts.
struct DemandResponseBid {
  double average_power_w = 0.0;
  double reserve_w = 0.0;

  double target_at(const RegulationSignal& signal, double t_s) const {
    return average_power_w + reserve_w * signal.at(t_s);
  }
};

/// Materialize the target series P_avg + R*y(t) on a uniform grid
/// (one sample per `update_period_s`, zero-order hold in between).
util::TimeSeries make_power_target_series(const DemandResponseBid& bid,
                                          const RegulationSignal& signal, double horizon_s,
                                          double update_period_s = 4.0);

/// The power-target file format, {"t_s": [...], "power_w": [...]}: the
/// `targets` block of a scenario spec and the file `anorctl targets`
/// writes.  Reading throws util::ConfigError when the arrays differ in
/// length or a time steps backwards.
util::Json power_targets_to_json(const util::TimeSeries& targets);
util::TimeSeries power_targets_from_json(const util::Json& json);

/// The demand-response bid implied by a 16-node cluster's cap range
/// (the Fig. 9 committed flexibility).
DemandResponseBid fig9_bid();

/// The paper's Fig. 9 setup: one hour of targets in [2.3, 4.3] kW updated
/// every 4 s around the committed mean, derived from a seeded regulation
/// walk.
util::TimeSeries fig9_targets(std::uint64_t seed, double horizon_s = 3600.0);

}  // namespace anor::workload
