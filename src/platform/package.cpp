#include "platform/package.hpp"

#include <algorithm>
#include <cmath>

namespace anor::platform {

CpuPackage::CpuPackage(const PackageConfig& config)
    : config_(config), power_w_(config.idle_power_w) {
  units_ = RaplUnits::decode(msr_.raw_read(kMsrRaplPowerUnit));
  const PkgPowerInfo info{config_.tdp_w, config_.min_cap_w, config_.max_cap_w};
  msr_.raw_write(kMsrPkgPowerInfo, info.encode(units_));
  // Power up with the limit at TDP, enabled — the common BIOS default.
  const PkgPowerLimit limit{config_.max_cap_w, 1.0, true, true};
  cap_raw_ = limit.encode(units_);
  cap_w_ = decode_cap_w(cap_raw_);
  msr_.raw_write(kMsrPkgPowerLimit, cap_raw_);
}

double CpuPackage::decode_cap_w(std::uint64_t raw) const {
  const PkgPowerLimit limit = PkgPowerLimit::decode(raw, units_);
  if (!limit.enabled) return config_.max_cap_w;
  return std::clamp(limit.power_limit_w, config_.min_cap_w, config_.max_cap_w);
}

double CpuPackage::effective_cap_w() const {
  const std::uint64_t raw = msr_.raw_read(kMsrPkgPowerLimit);
  return raw == cap_raw_ ? cap_w_ : decode_cap_w(raw);
}

void CpuPackage::step(double dt_s, double demand_w) {
  if (dt_s <= 0.0) return;
  const std::uint64_t raw = msr_.raw_read(kMsrPkgPowerLimit);
  if (raw != cap_raw_) {
    cap_raw_ = raw;
    cap_w_ = decode_cap_w(raw);
  }
  const double cap = cap_w_;
  const double floor = config_.idle_power_w;
  const double target = std::clamp(std::min(demand_w, cap), floor, config_.max_cap_w);
  // First-order settle toward the target power.
  const double tau = config_.response_tau_s;
  if (tau > 1e-9) {
    if (dt_s != response_dt_s_) {
      response_dt_s_ = dt_s;
      response_alpha_ = 1.0 - std::exp(-dt_s / tau);
    }
    power_w_ += (target - power_w_) * response_alpha_;
  } else {
    power_w_ = target;
  }
  // Integrate energy into the 32-bit wrapping counter in RAPL units.
  const double energy_j = power_w_ * dt_s;
  total_energy_j_ += energy_j;
  energy_accum_j_ += energy_j;
  const double unit = units_.energy_unit_j();
  const auto ticks = static_cast<std::uint64_t>(energy_accum_j_ / unit);
  if (ticks > 0) {
    energy_accum_j_ -= static_cast<double>(ticks) * unit;
    const std::uint64_t counter = msr_.raw_read(kMsrPkgEnergyStatus);
    msr_.raw_write(kMsrPkgEnergyStatus, (counter + ticks) & 0xFFFFFFFFULL);
  }
}

}  // namespace anor::platform
