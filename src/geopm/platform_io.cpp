#include "geopm/platform_io.hpp"

#include <algorithm>

#include "geopm/signals.hpp"
#include "platform/msr.hpp"
#include "telemetry/metrics.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace anor::geopm {

PlatformIO::PlatformIO(platform::Node& node, const util::VirtualClock& clock)
    : node_(&node), clock_(&clock) {
  const auto package_count = static_cast<std::size_t>(node.package_count());
  last_raw_energy_.assign(package_count, 0);
  accumulated_energy_j_.assign(package_count, 0.0);
}

PlatformIO::Signal PlatformIO::resolve_signal(std::string_view name) {
  if (name == kSignalCpuEnergy) return Signal::kCpuEnergy;
  if (name == kSignalCpuPower) return Signal::kCpuPower;
  if (name == kSignalEpochCount) return Signal::kEpochCount;
  if (name == kSignalEpochLastTime) return Signal::kEpochLastTime;
  if (name == kSignalTime) return Signal::kTime;
  throw util::ConfigError("PlatformIO: unknown signal '" + std::string(name) + "'");
}

PlatformIO::Control PlatformIO::resolve_control(std::string_view name) {
  if (name == kControlCpuPowerLimit) return Control::kCpuPowerLimit;
  throw util::ConfigError("PlatformIO: unknown control '" + std::string(name) + "'");
}

int PlatformIO::push_signal(std::string_view name) {
  pushed_signals_.push_back(resolve_signal(name));
  signal_values_.push_back(0.0);
  return static_cast<int>(pushed_signals_.size()) - 1;
}

int PlatformIO::push_control(std::string_view name) {
  pushed_controls_.push_back(resolve_control(name));
  control_values_.push_back(0.0);
  control_dirty_.push_back(false);
  return static_cast<int>(pushed_controls_.size()) - 1;
}

double PlatformIO::signal_value(Signal signal, double now_s, double energy_j) const {
  switch (signal) {
    case Signal::kCpuEnergy: return energy_j;
    case Signal::kCpuPower: return derived_power_w_;
    case Signal::kEpochCount:
      return kernel_ != nullptr ? static_cast<double>(kernel_->epoch_count()) : 0.0;
    case Signal::kEpochLastTime:
      return kernel_ != nullptr ? now_s - kernel_->time_since_last_epoch_s() : 0.0;
    case Signal::kTime: return now_s;
  }
  return 0.0;
}

double PlatformIO::unwrapped_energy_j() {
  // PKG_ENERGY_STATUS is a 32-bit counter in RAPL energy units; unwrap it
  // per package and convert to joules.  A transient MSR read fault holds
  // the package's accumulator at its last value — the next successful
  // read's raw delta covers the missed window, so no energy is lost.
  double total = 0.0;
  for (int p = 0; p < node_->package_count(); ++p) {
    auto& pkg = node_->package(p);
    const auto idx = static_cast<std::size_t>(p);
    std::uint64_t raw = 0;
    try {
      raw = pkg.msr().read(platform::kMsrPkgEnergyStatus) & 0xFFFFFFFFULL;
    } catch (const util::MsrAccessError&) {
      static auto& faults =
          telemetry::MetricsRegistry::global().counter("geopm.pio.energy_read_faults");
      faults.inc();
      total += accumulated_energy_j_[idx];
      continue;
    }
    std::uint64_t delta;
    if (!energy_initialized_) {
      delta = 0;
    } else if (raw >= last_raw_energy_[idx]) {
      delta = raw - last_raw_energy_[idx];
    } else {
      delta = raw + 0x100000000ULL - last_raw_energy_[idx];  // wrapped
    }
    last_raw_energy_[idx] = raw;
    accumulated_energy_j_[idx] += static_cast<double>(delta) * pkg.units().energy_unit_j();
    total += accumulated_energy_j_[idx];
  }
  energy_initialized_ = true;
  return total;
}

void PlatformIO::read_batch() {
  const double now = clock_->now();
  const double energy = unwrapped_energy_j();
  if (power_initialized_ && now > last_energy_time_s_) {
    derived_power_w_ = (energy - last_energy_j_) / (now - last_energy_time_s_);
  }
  last_energy_j_ = energy;
  last_energy_time_s_ = now;
  power_initialized_ = true;

  for (std::size_t i = 0; i < pushed_signals_.size(); ++i) {
    signal_values_[i] = signal_value(pushed_signals_[i], now, energy);
  }
}

double PlatformIO::sample(int signal_index) const {
  return signal_values_.at(static_cast<std::size_t>(signal_index));
}

void PlatformIO::adjust(int control_index, double value) {
  const auto idx = static_cast<std::size_t>(control_index);
  control_values_.at(idx) = value;
  control_dirty_.at(idx) = true;
}

void PlatformIO::write_batch() {
  for (std::size_t i = 0; i < pushed_controls_.size(); ++i) {
    if (!control_dirty_[i]) continue;
    try {
      switch (pushed_controls_[i]) {
        case Control::kCpuPowerLimit: node_->set_power_cap(control_values_[i]); break;
      }
    } catch (const util::MsrAccessError& err) {
      // Transient write fault: keep the control dirty so the next
      // write_batch retries the cap instead of silently dropping it.
      static auto& faults =
          telemetry::MetricsRegistry::global().counter("geopm.pio.cap_write_faults");
      faults.inc();
      util::log_debug("platform-io", std::string("cap write deferred: ") + err.what());
      continue;
    }
    control_dirty_[i] = false;
  }
}

double PlatformIO::read_signal(std::string_view name) {
  const Signal signal = resolve_signal(name);
  const double energy = signal == Signal::kCpuEnergy ? unwrapped_energy_j() : 0.0;
  return signal_value(signal, clock_->now(), energy);
}

void PlatformIO::write_control(std::string_view name, double value) {
  resolve_control(name);
  node_->set_power_cap(value);
}

}  // namespace anor::geopm
