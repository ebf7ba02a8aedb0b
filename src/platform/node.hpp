// Compute-node model: two CPU packages plus an attached compute load.
//
// The node is the unit the cluster tier budgets power to.  A node-level cap
// is split evenly across its packages (GEOPM's power_governor does the
// same); the node's measured CPU power is the sum of package powers read
// back through the energy counters.  Each node carries a performance
// multiplier to model node-to-node variation (paper Sec. 5.6/6.4).
#pragma once

#include <memory>
#include <vector>

#include "platform/compute_load.hpp"
#include "platform/package.hpp"

namespace anor::platform {

struct NodeConfig {
  PackageConfig package;
  int package_count = 2;
  /// Performance multiplier applied to this node's progress rate; 1.0 is
  /// nominal, > 1 means the node is slower (multiplies epoch time).
  double perf_multiplier = 1.0;
};

class Node {
 public:
  explicit Node(int node_id, const NodeConfig& config = {});

  int id() const { return id_; }
  const NodeConfig& config() const { return config_; }
  int package_count() const { return static_cast<int>(packages_.size()); }

  CpuPackage& package(int index) { return packages_.at(static_cast<std::size_t>(index)); }
  const CpuPackage& package(int index) const {
    return packages_.at(static_cast<std::size_t>(index));
  }

  /// Node-level cap limits (sum over packages).
  double min_cap_w() const;
  double max_cap_w() const;
  double tdp_w() const;

  /// Program a node-level power cap: split evenly across packages and
  /// written through the (allowlisted) PKG_POWER_LIMIT register.
  void set_power_cap(double node_cap_w);

  /// Sum of programmed package caps after hardware clamping.
  double effective_cap_w() const;

  /// Sum of instantaneous package power.
  double power_w() const;

  /// Lifetime CPU energy, joules.
  double total_energy_j() const;

  /// Attach/detach the load executing on this node (one job share).
  void attach_load(std::shared_ptr<ComputeLoad> load) { load_ = std::move(load); }
  void detach_load() { load_.reset(); }
  bool busy() const { return load_ != nullptr; }
  const std::shared_ptr<ComputeLoad>& load() const { return load_; }

  double perf_multiplier() const { return config_.perf_multiplier; }
  void set_perf_multiplier(double m) { config_.perf_multiplier = m; }

  /// Advance the node by dt_s: the load progresses under the effective cap
  /// (scaled by the node's performance multiplier) and the packages settle
  /// and integrate energy.
  void step(double dt_s);

 private:
  int id_;
  NodeConfig config_;
  std::vector<CpuPackage> packages_;  // sized once, at construction
  std::shared_ptr<ComputeLoad> load_;
};

}  // namespace anor::platform
