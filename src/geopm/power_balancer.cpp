#include "geopm/power_balancer.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/metrics.hpp"

namespace anor::geopm {

PowerBalancerAgent::PowerBalancerAgent(PlatformIO& pio, BalancerConfig config)
    : PowerGovernorAgent(pio), config_(config) {}

void PowerBalancerAgent::observe_child_samples(std::span<const Sample> samples) {
  if (samples.size() < 2) return;  // leaf: nothing to balance

  // Mean epoch count across the child subtrees (excluding this node's own
  // sample at index 0 — the incoming policy already fixes its cap).
  double mean_epoch = 0.0;
  int children = 0;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    mean_epoch += samples[i][kSampleEpochCount];
    ++children;
  }
  if (children == 0) return;
  mean_epoch /= children;

  if (child_lag_.size() != static_cast<std::size_t>(children)) {
    child_lag_.assign(static_cast<std::size_t>(children), 0.0);
    child_nodes_.assign(static_cast<std::size_t>(children), 1.0);
  }
  const double denom = std::max(mean_epoch, 1.0);
  for (int c = 0; c < children; ++c) {
    const auto& sample = samples[static_cast<std::size_t>(c) + 1];
    // Positive lag = this subtree is behind the others.
    const double lag = (mean_epoch - sample[kSampleEpochCount]) / denom;
    child_lag_[static_cast<std::size_t>(c)] =
        (1.0 - config_.lag_smoothing) * child_lag_[static_cast<std::size_t>(c)] +
        config_.lag_smoothing * lag;
    child_nodes_[static_cast<std::size_t>(c)] = std::max(sample[kSampleNodeCount], 1.0);
  }
}

void PowerBalancerAgent::split_policy(const Policy& policy, std::span<Policy> children) const {
  // Registered on the first split, balanced or not, so later splits only
  // bump them.
  static auto& splits = telemetry::MetricsRegistry::global().counter("job.balancer.splits");
  static auto& max_lag =
      telemetry::MetricsRegistry::global().gauge("job.balancer.max_abs_lag");
  const std::size_t count = children.size();
  std::fill(children.begin(), children.end(), policy);
  if (child_lag_.size() != count) return;

  splits.inc();
  double lag_peak = 0.0;
  for (const double lag : child_lag_) lag_peak = std::max(lag_peak, std::abs(lag));
  max_lag.set(lag_peak);

  // Each child's cap is computed in place in its record.
  const double avg_cap = policy[kPolicyPowerCap];
  double target_watts = 0.0;
  double actual_watts = 0.0;
  for (std::size_t c = 0; c < count; ++c) {
    double& cap = children[c][kPolicyPowerCap];
    cap = std::clamp(avg_cap * (1.0 + config_.gain * child_lag_[c]), config_.cap_floor_w,
                     config_.cap_ceiling_w);
    target_watts += child_nodes_[c] * avg_cap;
    actual_watts += child_nodes_[c] * cap;
  }
  // Conserve the subtree's power budget after clamping: rescale the
  // unclamped caps repeatedly (clamping after a rescale can break the sum
  // again, so iterate; this converges in a few passes).
  for (int pass = 0; pass < 8 && actual_watts > 1e-9; ++pass) {
    const double scale = target_watts / actual_watts;
    if (std::abs(scale - 1.0) < 1e-6) break;
    actual_watts = 0.0;
    for (std::size_t c = 0; c < count; ++c) {
      double& cap = children[c][kPolicyPowerCap];
      cap = std::clamp(cap * scale, config_.cap_floor_w, config_.cap_ceiling_w);
      actual_watts += child_nodes_[c] * cap;
    }
  }
}

}  // namespace anor::geopm
