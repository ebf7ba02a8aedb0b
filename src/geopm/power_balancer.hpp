// The power_balancer agent: intra-job power shifting toward lagging nodes.
//
// GEOPM's second stock agent (and the paper's Sec. 8 direction: "the job
// tier may locally explore power and performance trade-offs ... within
// jobs").  Where power_governor splits a job's budget uniformly across
// nodes, the balancer watches each subtree's epoch count during the
// sample reduce and biases the next policy split: subtrees behind on
// epochs get more than the average cap, subtrees ahead get less, with the
// subtree total conserved.  A multi-node job finishes when its *slowest*
// node finishes, so under node-to-node performance variation this
// directly shortens completion time at equal job power.
#pragma once

#include <vector>

#include "geopm/power_governor.hpp"

namespace anor::geopm {

struct BalancerConfig {
  /// Fraction of the average cap shifted per unit of relative epoch lag.
  double gain = 2.0;
  /// Clamp per-node caps into [floor, ceiling] watts (platform limits).
  double cap_floor_w = 140.0;
  double cap_ceiling_w = 280.0;
  /// Exponential smoothing factor on the lag estimate (0..1; 1 = raw).
  double lag_smoothing = 0.5;
};

class PowerBalancerAgent final : public PowerGovernorAgent {
 public:
  explicit PowerBalancerAgent(PlatformIO& pio, BalancerConfig config = {});

  std::string name() const override { return "power_balancer"; }

  void observe_child_samples(std::span<const Sample> samples) override;
  void split_policy(const Policy& policy, std::span<Policy> children) const override;

 private:
  BalancerConfig config_;
  // Per-child smoothed epoch lag relative to the subtree mean; index 0 is
  // this node itself, 1.. are child subtrees (matching observe order).
  std::vector<double> child_lag_;
  std::vector<double> child_nodes_;
};

}  // namespace anor::geopm
