#include "geopm/power_governor.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"
#include "util/error.hpp"

namespace anor::geopm {

void Agent::split_policy(const Policy& policy, std::span<Policy> children) const {
  std::fill(children.begin(), children.end(), policy);
}

void Agent::observe_child_samples(std::span<const Sample>) {}

PowerGovernorAgent::PowerGovernorAgent(PlatformIO& pio) : pio_(&pio) {
  sig_power_ = pio_->push_signal(kSignalCpuPower);
  sig_energy_ = pio_->push_signal(kSignalCpuEnergy);
  sig_epoch_ = pio_->push_signal(kSignalEpochCount);
  sig_epoch_time_ = pio_->push_signal(kSignalEpochLastTime);
  sig_time_ = pio_->push_signal(kSignalTime);
  ctl_power_limit_ = pio_->push_control(kControlCpuPowerLimit);
}

void PowerGovernorAgent::validate_policy(const Policy& policy) const {
  const double cap = policy[kPolicyPowerCap];
  if (!(cap > 0.0)) {
    throw util::ConfigError("power_governor: power cap must be positive");
  }
}

void PowerGovernorAgent::adjust_platform(const Policy& policy) {
  validate_policy(policy);
  static auto& cap_writes =
      telemetry::MetricsRegistry::global().counter("job.governor.cap_writes");
  static auto& suppressed =
      telemetry::MetricsRegistry::global().counter("job.governor.cap_writes_suppressed");
  const double requested = policy[kPolicyPowerCap];
  if (requested == last_cap_request_w_) {
    suppressed.inc();
    return;  // nothing new to write
  }
  last_cap_request_w_ = requested;
  pio_->adjust(ctl_power_limit_, requested);
  pio_->write_batch();
  applied_cap_w_ = pio_->node().effective_cap_w();
  cap_writes.inc();
}

Sample PowerGovernorAgent::sample_platform() {
  pio_->read_batch();
  Sample sample{};
  sample[kSamplePower] = pio_->sample(sig_power_);
  sample[kSampleEnergy] = pio_->sample(sig_energy_);
  sample[kSampleEpochCount] = pio_->sample(sig_epoch_);
  sample[kSampleTimestamp] = pio_->sample(sig_time_);
  sample[kSampleNodeCount] = 1.0;
  sample[kSampleEpochTime] = pio_->sample(sig_epoch_time_);
  return sample;
}

Sample PowerGovernorAgent::aggregate_samples(std::span<const Sample> child_samples) const {
  Sample agg{};
  if (child_samples.empty()) return agg;
  double min_epoch = child_samples.front()[kSampleEpochCount];
  double max_time = child_samples.front()[kSampleTimestamp];
  for (const auto& s : child_samples) {
    agg[kSamplePower] += s[kSamplePower];
    agg[kSampleEnergy] += s[kSampleEnergy];
    agg[kSampleNodeCount] += s[kSampleNodeCount];
    min_epoch = std::min(min_epoch, s[kSampleEpochCount]);
    max_time = std::max(max_time, s[kSampleTimestamp]);
  }
  // The global epoch count advances only when every node has reached the
  // epoch marker — hence the min across nodes (paper Sec. 5.1).  The
  // global epoch's completion time is when the *binding* (min-count)
  // subtree reached it; among ties, the latest.
  double epoch_time = 0.0;
  for (const auto& s : child_samples) {
    if (s[kSampleEpochCount] <= min_epoch + 1e-9) {
      epoch_time = std::max(epoch_time, s[kSampleEpochTime]);
    }
  }
  agg[kSampleEpochCount] = min_epoch;
  agg[kSampleTimestamp] = max_time;
  agg[kSampleEpochTime] = epoch_time;
  return agg;
}

}  // namespace anor::geopm
