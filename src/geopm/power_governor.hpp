// The power_governor agent, modified to report epoch counts.
//
// Paper Sec. 4.3: "We modified the GEOPM power_governor agent to write
// epoch count to the endpoint."  The governor enforces a node-level CPU
// power cap (split evenly across packages by the platform layer) and
// samples power, energy, and the application epoch counter.
#pragma once

#include <memory>

#include "geopm/agent.hpp"
#include "geopm/signals.hpp"

namespace anor::geopm {

class PowerGovernorAgent : public Agent {
 public:
  /// The PlatformIO must outlive the agent.
  explicit PowerGovernorAgent(PlatformIO& pio);

  std::string name() const override { return "power_governor"; }
  void validate_policy(const Policy& policy) const override;
  void adjust_platform(const Policy& policy) override;
  Sample sample_platform() override;
  Sample aggregate_samples(std::span<const Sample> child_samples) const override;

  /// Last cap actually applied (after hardware clamping), for reports.
  double applied_cap_w() const { return applied_cap_w_; }

 private:
  PlatformIO* pio_;
  int sig_power_ = -1;
  int sig_energy_ = -1;
  int sig_epoch_ = -1;
  int sig_epoch_time_ = -1;
  int sig_time_ = -1;
  int ctl_power_limit_ = -1;
  double applied_cap_w_ = 0.0;
  double last_cap_request_w_ = -1.0;
};

}  // namespace anor::geopm
