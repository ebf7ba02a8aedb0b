// The emulated cluster's hardware: a set of nodes with per-node
// performance-variation multipliers and aggregate power measurement.
#pragma once

#include <memory>
#include <vector>

#include "platform/node.hpp"
#include "util/rng.hpp"

namespace anor::platform {

struct ClusterHwConfig {
  int node_count = 16;
  NodeConfig node;
  /// Standard deviation of the per-node performance multiplier (mean 1.0).
  /// 0 disables variation.  The paper's Fig. 11 sweeps this: "99 % of
  /// performance within ±x%" corresponds to sigma = x / 2.576.
  double perf_variation_sigma = 0.0;
};

class ClusterHw {
 public:
  /// Builds node_count nodes; if perf_variation_sigma > 0, draws each
  /// node's multiplier from N(1, sigma) truncated to [0.5, 1.5] using the
  /// provided rng.
  ClusterHw(const ClusterHwConfig& config, util::Rng rng);

  int node_count() const { return static_cast<int>(nodes_.size()); }
  Node& node(int index) { return *nodes_.at(static_cast<std::size_t>(index)); }
  const Node& node(int index) const { return *nodes_.at(static_cast<std::size_t>(index)); }

  const ClusterHwConfig& config() const { return config_; }

  /// Total instantaneous CPU power across all nodes, watts.
  double total_power_w() const;

  /// Total lifetime CPU energy, joules.
  double total_energy_j() const;

  /// Sum of node cap ranges.
  double min_cap_w() const;
  double max_cap_w() const;

  /// Advance every node by dt_s, in node order.
  void step(double dt_s);

  /// Node indices currently without a load attached.
  std::vector<int> idle_nodes() const;

 private:
  ClusterHwConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

/// Convert a "99 % of performance within ±x" band half-width (fraction,
/// e.g. 0.15 for ±15 %) to the normal sigma that produces it.
double sigma_from_band99(double band_half_width);

}  // namespace anor::platform
