// Signal and control names of the GEOPM-like runtime.
//
// The paper's deployment reads the CPU_ENERGY signal (aggregated from
// PKG_ENERGY_STATUS) and writes the CPU_POWER_LIMIT_CONTROL control
// (mapping to PKG_POWER_LIMIT) — Sec. 5.4.  We reproduce those names so
// the bridging layer reads like the real thing.
#pragma once

#include <array>
#include <string_view>

namespace anor::geopm {

// Signals
inline constexpr std::string_view kSignalCpuEnergy = "CPU_ENERGY";       // joules, node total
inline constexpr std::string_view kSignalCpuPower = "CPU_POWER";         // watts, node total
inline constexpr std::string_view kSignalEpochCount = "EPOCH_COUNT";     // application epochs
inline constexpr std::string_view kSignalEpochLastTime = "EPOCH_LAST_TIME";  // completion time, s
inline constexpr std::string_view kSignalTime = "TIME";                  // seconds

// Controls
inline constexpr std::string_view kControlCpuPowerLimit = "CPU_POWER_LIMIT_CONTROL";  // watts

/// Fixed indices of the policy and sample records exchanged between the
/// endpoint and the agent tree.  GEOPM models these as flat double arrays,
/// and so do we (Policy and Sample below): a record has one size, so the
/// tree, the endpoint rings and the agents pass them by value and nothing
/// on the control path allocates.
enum PolicyIndex : int {
  kPolicyPowerCap = 0,   // node-level power cap, watts
  kPolicySize = 1,
};

enum SampleIndex : int {
  kSamplePower = 0,      // job CPU power, watts (sum over nodes)
  kSampleEnergy = 1,     // job CPU energy, joules (sum over nodes)
  kSampleEpochCount = 2, // global epoch count (min over nodes)
  kSampleTimestamp = 3,  // virtual time of the sample, seconds
  kSampleNodeCount = 4,  // nodes aggregated into this sample
  kSampleEpochTime = 5,  // completion time of the global epoch, seconds
  kSampleSize = 6,
};

using Policy = std::array<double, kPolicySize>;
using Sample = std::array<double, kSampleSize>;

}  // namespace anor::geopm
