// PlatformIO: the node-local signal/control abstraction.
//
// System software never touches MSRs directly; it pushes named signals and
// controls, then calls read_batch()/write_batch() once per control loop —
// the same batching discipline GEOPM uses.  Names resolve once, at push
// time; the batch calls switch on the resolved kind.  CPU_ENERGY handles the 32-bit
// PKG_ENERGY_STATUS wraparound; CPU_POWER is derived from energy deltas
// between consecutive read_batch calls.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "platform/node.hpp"
#include "util/clock.hpp"
#include "workload/synthetic_kernel.hpp"

namespace anor::geopm {

class PlatformIO {
 public:
  /// Binds to a node; the clock provides timestamps for derived signals.
  /// Both must outlive the PlatformIO.
  PlatformIO(platform::Node& node, const util::VirtualClock& clock);

  /// Attach the kernel whose epoch counter backs EPOCH_COUNT (the node's
  /// share of the running job).  Pass nullptr when the node idles.
  void bind_epoch_source(const workload::JobKernel* kernel) { kernel_ = kernel; }

  /// Register interest in a signal/control; returns its batch index.
  /// Unknown names throw ConfigError.
  int push_signal(std::string_view name);
  int push_control(std::string_view name);

  /// Read all pushed signals from hardware.  Must be called before
  /// sample(); each call defines a new observation window for CPU_POWER.
  void read_batch();

  /// Value of a pushed signal as of the last read_batch.
  double sample(int signal_index) const;

  /// Stage a control value; write_batch() pushes staged values to hardware.
  void adjust(int control_index, double value);
  void write_batch();

  /// One-shot accessors (no batching) for tools and tests.
  double read_signal(std::string_view name);
  void write_control(std::string_view name, double value);

  platform::Node& node() { return *node_; }

 private:
  enum class Signal : std::uint8_t { kCpuEnergy, kCpuPower, kEpochCount, kEpochLastTime, kTime };
  enum class Control : std::uint8_t { kCpuPowerLimit };

  /// The signal `name` names; unknown names throw ConfigError.
  static Signal resolve_signal(std::string_view name);
  /// The control `name` names; unknown names throw ConfigError.
  static Control resolve_control(std::string_view name);
  /// A signal's value at `now_s`; `energy_j` is CPU_ENERGY's value.
  double signal_value(Signal signal, double now_s, double energy_j) const;
  double unwrapped_energy_j();

  platform::Node* node_;
  const util::VirtualClock* clock_;
  const workload::JobKernel* kernel_ = nullptr;

  std::vector<Signal> pushed_signals_;
  std::vector<double> signal_values_;
  std::vector<Control> pushed_controls_;
  std::vector<double> control_values_;
  std::vector<bool> control_dirty_;

  // Energy-counter unwrap state, one entry per package.
  std::vector<std::uint64_t> last_raw_energy_;
  std::vector<double> accumulated_energy_j_;
  bool energy_initialized_ = false;

  // CPU_POWER derivation window.
  double last_energy_j_ = 0.0;
  double last_energy_time_s_ = 0.0;
  double derived_power_w_ = 0.0;
  bool power_initialized_ = false;
};

}  // namespace anor::geopm
