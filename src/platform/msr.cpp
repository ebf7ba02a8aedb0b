#include "platform/msr.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/metrics.hpp"

namespace anor::platform {

namespace {

std::uint64_t encode_fixed(double value, double unit, std::uint64_t max_field) {
  if (value < 0.0) value = 0.0;
  const auto raw = static_cast<std::uint64_t>(std::llround(value / unit));
  return std::min(raw, max_field);
}

std::string hex_of(std::uint32_t address) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", address);
  return buf;
}

}  // namespace

std::uint64_t RaplUnits::encode() const {
  return (static_cast<std::uint64_t>(power_unit_bits) & 0xF) |
         ((static_cast<std::uint64_t>(energy_unit_bits) & 0x1F) << 8) |
         ((static_cast<std::uint64_t>(time_unit_bits) & 0xF) << 16);
}

RaplUnits RaplUnits::decode(std::uint64_t raw) {
  RaplUnits units;
  units.power_unit_bits = static_cast<unsigned>(raw & 0xF);
  units.energy_unit_bits = static_cast<unsigned>((raw >> 8) & 0x1F);
  units.time_unit_bits = static_cast<unsigned>((raw >> 16) & 0xF);
  return units;
}

std::uint64_t PkgPowerLimit::encode(const RaplUnits& units) const {
  // PL1 layout: bits 14:0 power limit, 15 enable, 16 clamp, 23:17 time window.
  // We model the time window with a simple fixed-point mantissa (no 2^y *
  // (1+z/4) encoding) — the control stack never relies on sub-second
  // windows.
  std::uint64_t raw = encode_fixed(power_limit_w, units.power_unit_w(), 0x7FFF);
  if (enabled) raw |= 1ULL << 15;
  if (clamp) raw |= 1ULL << 16;
  const std::uint64_t window = encode_fixed(time_window_s, 0.125, 0x7F);
  raw |= window << 17;
  return raw;
}

PkgPowerLimit PkgPowerLimit::decode(std::uint64_t raw, const RaplUnits& units) {
  PkgPowerLimit limit;
  limit.power_limit_w = static_cast<double>(raw & 0x7FFF) * units.power_unit_w();
  limit.enabled = (raw >> 15) & 1;
  limit.clamp = (raw >> 16) & 1;
  limit.time_window_s = static_cast<double>((raw >> 17) & 0x7F) * 0.125;
  return limit;
}

std::uint64_t PkgPowerInfo::encode(const RaplUnits& units) const {
  const double unit = units.power_unit_w();
  return encode_fixed(tdp_w, unit, 0x7FFF) |
         (encode_fixed(min_power_w, unit, 0x7FFF) << 16) |
         (encode_fixed(max_power_w, unit, 0x7FFF) << 32);
}

PkgPowerInfo PkgPowerInfo::decode(std::uint64_t raw, const RaplUnits& units) {
  const double unit = units.power_unit_w();
  PkgPowerInfo info;
  info.tdp_w = static_cast<double>(raw & 0x7FFF) * unit;
  info.min_power_w = static_cast<double>((raw >> 16) & 0x7FFF) * unit;
  info.max_power_w = static_cast<double>((raw >> 32) & 0x7FFF) * unit;
  return info;
}

MsrFile::MsrFile() {
  // Default msr-safe-style allowlist: all four RAPL registers readable,
  // only the power limit writable.  The per-tick registers lead.
  slots_.reserve(4);
  slots_.push_back(Slot{kMsrPkgEnergyStatus, true, true, false, 0});
  slots_.push_back(Slot{kMsrPkgPowerLimit, true, true, true, 0});
  slots_.push_back(Slot{kMsrRaplPowerUnit, true, true, false, RaplUnits{}.encode()});
  slots_.push_back(Slot{kMsrPkgPowerInfo, true, true, false, 0});
}

void MsrFile::throw_unknown(std::uint32_t address) {
  throw util::MsrAccessError("unknown MSR: " + hex_of(address));
}

MsrFile::Slot& MsrFile::slot(std::uint32_t address) {
  for (Slot& s : slots_) {
    if (s.address == address) return s;
  }
  slots_.push_back(Slot{address, false, false, false, 0});
  return slots_.back();
}

bool MsrFile::read_allowed(std::uint32_t address) const {
  const Slot* s = find(address);
  return s != nullptr && s->readable;
}

bool MsrFile::write_allowed(std::uint32_t address) const {
  const Slot* s = find(address);
  return s != nullptr && s->writable;
}

std::uint64_t MsrFile::read(std::uint32_t address) const {
  static auto& reads = telemetry::MetricsRegistry::global().counter("node.msr.reads");
  static auto& denied = telemetry::MetricsRegistry::global().counter("node.msr.denied");
  static auto& faults = telemetry::MetricsRegistry::global().counter("node.msr.read_faults");
  const Slot* s = find(address);
  if (s == nullptr || !s->readable) {
    denied.inc();
    throw util::MsrAccessError("MSR read denied by allowlist: " + hex_of(address));
  }
  if (fault_hook_ && fault_hook_(address, false)) {
    faults.inc();
    throw util::MsrAccessError("transient MSR read fault: " + hex_of(address));
  }
  reads.inc();
  if (!s->present) throw_unknown(address);
  return s->value;
}

void MsrFile::write(std::uint32_t address, std::uint64_t value) {
  static auto& writes = telemetry::MetricsRegistry::global().counter("node.msr.writes");
  static auto& denied = telemetry::MetricsRegistry::global().counter("node.msr.denied");
  static auto& faults = telemetry::MetricsRegistry::global().counter("node.msr.write_faults");
  if (!write_allowed(address)) {
    denied.inc();
    throw util::MsrAccessError("MSR write denied by allowlist: " + hex_of(address));
  }
  if (fault_hook_ && fault_hook_(address, true)) {
    faults.inc();
    throw util::MsrAccessError("transient MSR write fault: " + hex_of(address));
  }
  writes.inc();
  raw_write(address, value);
}

void MsrFile::raw_write(std::uint32_t address, std::uint64_t value) {
  Slot& s = slot(address);
  s.present = true;
  s.value = value;
}

void MsrFile::deny_all() {
  for (Slot& s : slots_) s.readable = s.writable = false;
}

}  // namespace anor::platform
