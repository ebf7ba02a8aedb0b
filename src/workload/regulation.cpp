#include "workload/regulation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/error.hpp"

namespace anor::workload {

RandomWalkRegulation::RandomWalkRegulation(util::Rng rng, double horizon_s, double step_s,
                                           double volatility)
    : step_s_(step_s) {
  if (step_s <= 0.0 || horizon_s <= 0.0) {
    throw std::invalid_argument("RandomWalkRegulation: bad step or horizon");
  }
  const auto count = static_cast<std::size_t>(std::ceil(horizon_s / step_s)) + 1;
  samples_.reserve(count);
  double y = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    samples_.push_back(y);
    y += rng.normal(0.0, volatility);
    // Reflect at the [-1, 1] boundary so the signal keeps its variance.
    if (y > 1.0) y = 2.0 - y;
    if (y < -1.0) y = -2.0 - y;
    y = std::clamp(y, -1.0, 1.0);
  }
}

double RandomWalkRegulation::at(double t_s) const {
  if (t_s <= 0.0) return samples_.front();
  const auto idx = static_cast<std::size_t>(t_s / step_s_);
  return samples_[std::min(idx, samples_.size() - 1)];
}

SinusoidRegulation::SinusoidRegulation(double period1_s, double period2_s, double weight2)
    : period1_s_(period1_s), period2_s_(period2_s), weight2_(weight2) {
  if (period1_s <= 0.0) throw std::invalid_argument("SinusoidRegulation: bad period");
}

double SinusoidRegulation::at(double t_s) const {
  constexpr double kTwoPi = 6.283185307179586;
  double y = (1.0 - weight2_) * std::sin(kTwoPi * t_s / period1_s_);
  if (period2_s_ > 0.0 && weight2_ > 0.0) {
    y += weight2_ * std::sin(kTwoPi * t_s / period2_s_);
  }
  return std::clamp(y, -1.0, 1.0);
}

util::TimeSeries make_power_target_series(const DemandResponseBid& bid,
                                          const RegulationSignal& signal, double horizon_s,
                                          double update_period_s) {
  if (update_period_s <= 0.0) {
    throw std::invalid_argument("make_power_target_series: bad update period");
  }
  util::TimeSeries series;
  for (double t = 0.0; t <= horizon_s + 1e-9; t += update_period_s) {
    series.add(t, bid.target_at(signal, t));
  }
  return series;
}

util::Json power_targets_to_json(const util::TimeSeries& targets) {
  util::JsonArray t;
  util::JsonArray p;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    t.push_back(util::Json(targets.times()[i]));
    p.push_back(util::Json(targets.values()[i]));
  }
  util::JsonObject obj;
  obj["t_s"] = util::Json(std::move(t));
  obj["power_w"] = util::Json(std::move(p));
  return util::Json(std::move(obj));
}

util::TimeSeries power_targets_from_json(const util::Json& json) {
  const util::JsonArray& t = json.at("t_s").as_array();
  const util::JsonArray& p = json.at("power_w").as_array();
  if (t.size() != p.size()) throw util::ConfigError("power targets: array size mismatch");
  util::TimeSeries series;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double t_s = t[i].as_number();
    if (!series.empty() && t_s < series.times().back()) {
      throw util::ConfigError("power targets: 't_s' must be non-decreasing");
    }
    series.add(t_s, p[i].as_number());
  }
  return series;
}

DemandResponseBid fig9_bid() {
  // 16 nodes x [140 W floor, ~270 W mixed-type max draw] bounds the
  // feasible CPU power to roughly [2.25, 4.3] kW once a node or two
  // idles; committing 2.3-4.3 kW keeps the whole band trackable (the
  // paper's testbed committed 2.3-4.5 kW; its jobs drew fully up to TDP).
  return DemandResponseBid{3300.0, 1000.0};
}

util::TimeSeries fig9_targets(std::uint64_t seed, double horizon_s) {
  const RandomWalkRegulation regulation(util::Rng(seed).child("regulation"), horizon_s + 60.0,
                                        4.0, 0.18);
  return make_power_target_series(fig9_bid(), regulation, horizon_s, 4.0);
}

}  // namespace anor::workload
