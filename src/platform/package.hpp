// CPU package (socket) RAPL model.
//
// Mirrors the evaluation platform: Xeon Gold 6152, 140 W TDP per socket,
// RAPL caps settable between 70 W and 140 W.  The package integrates energy
// into a 32-bit wrapping counter (as PKG_ENERGY_STATUS does) and applies a
// first-order lag between a cap change and the settled power level, which
// is what the running-average power limiting of RAPL looks like from
// software.
#pragma once

#include <cstdint>

#include "platform/msr.hpp"

namespace anor::platform {

struct PackageConfig {
  double tdp_w = 140.0;
  double min_cap_w = 70.0;
  double max_cap_w = 140.0;
  double idle_power_w = 18.0;
  /// Time constant of the power response to cap/demand changes (seconds).
  double response_tau_s = 0.5;
};

class CpuPackage {
 public:
  explicit CpuPackage(const PackageConfig& config = {});

  /// System-software view of the registers (allowlist-gated).
  MsrFile& msr() { return msr_; }
  const MsrFile& msr() const { return msr_; }

  const PackageConfig& config() const { return config_; }

  /// Cap currently programmed in PKG_POWER_LIMIT, clamped by hardware to
  /// the [min_cap, max_cap] range (RAPL ignores out-of-range requests by
  /// clamping, it does not fault).  Served from the decode cache while
  /// the register holds the bits step() last decoded.
  double effective_cap_w() const;

  /// Instantaneous power draw (after the first-order response), watts.
  double power_w() const { return power_w_; }

  /// Lifetime energy in joules (unwrapped, for tests/diagnostics).
  double total_energy_j() const { return total_energy_j_; }

  /// Advance the hardware model: settle power toward min(demand, cap) and
  /// integrate energy into the wrapping counter.  `demand_w` is the power
  /// the load would draw on this package if uncapped.  Refreshes both
  /// caches below; they are written nowhere else, so const readers on
  /// other threads never race with a cache update.
  void step(double dt_s, double demand_w);

  /// Decoded RAPL units for this package.
  const RaplUnits& units() const { return units_; }

 private:
  /// The clamped cap `raw` PKG_POWER_LIMIT bits program: a pure function
  /// of the bits (units and cap range are fixed at construction).
  double decode_cap_w(std::uint64_t raw) const;

  PackageConfig config_;
  RaplUnits units_;
  MsrFile msr_;
  // Decode cache: the PKG_POWER_LIMIT bits last decoded and their cap.
  std::uint64_t cap_raw_ = 0;
  double cap_w_ = 0.0;
  // Response cache: 1 - exp(-dt/tau) for the last dt stepped (tau is
  // fixed; 0 never matches since step() returns early on dt <= 0).
  double response_dt_s_ = 0.0;
  double response_alpha_ = 0.0;
  double power_w_;
  double total_energy_j_ = 0.0;
  double energy_accum_j_ = 0.0;  // sub-counter-unit remainder
};

}  // namespace anor::platform
