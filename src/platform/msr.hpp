// Model-specific register (MSR) emulation with RAPL semantics.
//
// The paper's GEOPM deployment reads PKG_ENERGY_STATUS and writes
// PKG_POWER_LIMIT through the msr-safe kernel module (Sec. 5.4).  We
// reproduce that interface: a per-package register file with an
// allowlist-gated accessor, RAPL fixed-point unit encoding, and a 32-bit
// wrapping energy counter.  The GEOPM-like runtime in src/geopm talks to
// hardware exclusively through this layer, so the same read/decode/
// accumulate logic a real deployment needs is exercised here.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace anor::platform {

/// Architectural MSR addresses (Intel SDM names).
enum MsrAddress : std::uint32_t {
  kMsrRaplPowerUnit = 0x606,   // unit definitions for power/energy/time
  kMsrPkgPowerLimit = 0x610,   // package RAPL limit (PL1 fields modeled)
  kMsrPkgEnergyStatus = 0x611, // 32-bit wrapping energy counter
  kMsrPkgPowerInfo = 0x614,    // TDP / min / max power
};

/// Fixed-point RAPL units as encoded in MSR_RAPL_POWER_UNIT.
/// power unit = 1/2^pu W, energy unit = 1/2^esu J, time unit = 1/2^tu s.
struct RaplUnits {
  unsigned power_unit_bits = 3;    // 1/8 W
  unsigned energy_unit_bits = 14;  // ~61 uJ
  unsigned time_unit_bits = 10;    // ~977 us

  double power_unit_w() const { return 1.0 / static_cast<double>(1u << power_unit_bits); }
  double energy_unit_j() const { return 1.0 / static_cast<double>(1u << energy_unit_bits); }
  double time_unit_s() const { return 1.0 / static_cast<double>(1u << time_unit_bits); }

  std::uint64_t encode() const;
  static RaplUnits decode(std::uint64_t raw);
};

/// Encode/decode helpers for the PL1 fields of PKG_POWER_LIMIT.
struct PkgPowerLimit {
  double power_limit_w = 0.0;
  double time_window_s = 1.0;
  bool enabled = true;
  bool clamp = true;

  std::uint64_t encode(const RaplUnits& units) const;
  static PkgPowerLimit decode(std::uint64_t raw, const RaplUnits& units);
};

/// Encode/decode for PKG_POWER_INFO (TDP and the allowed cap range).
struct PkgPowerInfo {
  double tdp_w = 140.0;
  double min_power_w = 70.0;
  double max_power_w = 140.0;

  std::uint64_t encode(const RaplUnits& units) const;
  static PkgPowerInfo decode(std::uint64_t raw, const RaplUnits& units);
};

/// Per-package register file gated by an msr-safe-style allowlist.
///
/// Reads/writes of unlisted registers throw MsrAccessError, as msr-safe
/// would reject them.  The hardware model (CpuPackage) bypasses the
/// allowlist via raw_* accessors, exactly as silicon updates registers
/// regardless of the kernel's access policy.
///
/// Registers and allowlist bits share one small flat table, searched
/// linearly, with the four RAPL registers first: a package touches only
/// those on every tick, so a lookup is a few compares and no access
/// allocates.  Any other address gets a slot the first time it is
/// allowed or raw-written.
class MsrFile {
 public:
  /// Constructs with the default allowlist (the four RAPL registers above;
  /// PKG_POWER_LIMIT is the only writable one, matching the paper's use).
  MsrFile();

  /// Gated accessors used by system software.
  std::uint64_t read(std::uint32_t address) const;
  void write(std::uint32_t address, std::uint64_t value);

  /// Ungated accessors used by the hardware model itself (inline: a
  /// package reads its registers on every tick).
  std::uint64_t raw_read(std::uint32_t address) const {
    const Slot* s = find(address);
    if (s == nullptr || !s->present) throw_unknown(address);
    return s->value;
  }
  void raw_write(std::uint32_t address, std::uint64_t value);

  /// Allowlist management (tests exercise denial paths).
  void allow_read(std::uint32_t address) { slot(address).readable = true; }
  void allow_write(std::uint32_t address) { slot(address).writable = true; }
  void deny_all();
  bool read_allowed(std::uint32_t address) const;
  bool write_allowed(std::uint32_t address) const;

  /// Transient-fault hook, consulted on every *gated* access (raw_* is
  /// the silicon and never faults).  Returning true makes the access
  /// throw MsrAccessError — the EIO an msr-safe read can return under
  /// contention.  Fault injection installs this; nullptr disables.
  using FaultHook = std::function<bool(std::uint32_t address, bool is_write)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

 private:
  /// One address: its register value (when a register exists there) and
  /// its allowlist bits.
  struct Slot {
    std::uint32_t address = 0;
    bool present = false;
    bool readable = false;
    bool writable = false;
    std::uint64_t value = 0;
  };

  /// The slot of `address`, or nullptr when the table has none.
  const Slot* find(std::uint32_t address) const {
    for (const Slot& s : slots_) {
      if (s.address == address) return &s;
    }
    return nullptr;
  }
  [[noreturn]] static void throw_unknown(std::uint32_t address);
  /// The slot of `address`, appended (absent and denied) when missing.
  Slot& slot(std::uint32_t address);

  std::vector<Slot> slots_;
  FaultHook fault_hook_;
};

}  // namespace anor::platform
