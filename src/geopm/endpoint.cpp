#include "geopm/endpoint.hpp"

namespace anor::geopm {

bool Endpoint::write_policy(double timestamp_s, const Policy& policy) {
  return policies_.push(TimedPolicy{timestamp_s, policy});
}

std::size_t Endpoint::read_samples(std::vector<TimedSample>& drained) {
  drained.clear();
  while (auto sample = samples_.pop()) {
    drained.push_back(*sample);
  }
  if (!drained.empty()) {
    std::lock_guard<std::mutex> lock(latest_mutex_);
    latest_sample_ = drained.back();
  }
  return drained.size();
}

std::optional<TimedSample> Endpoint::latest_sample() const {
  std::lock_guard<std::mutex> lock(latest_mutex_);
  return latest_sample_;
}

std::optional<TimedPolicy> Endpoint::read_policy() {
  std::optional<TimedPolicy> newest;
  while (auto policy = policies_.pop()) {
    newest = *policy;
  }
  return newest;
}

bool Endpoint::write_sample(double timestamp_s, const Sample& sample) {
  return samples_.push(TimedSample{timestamp_s, sample});
}

}  // namespace anor::geopm
