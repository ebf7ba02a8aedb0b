#include "platform/cluster_hw.hpp"

namespace anor::platform {

namespace {
// Two-sided 99 % quantile of the standard normal distribution.
constexpr double kZ99 = 2.5758293035489004;
}  // namespace

double sigma_from_band99(double band_half_width) {
  return band_half_width <= 0.0 ? 0.0 : band_half_width / kZ99;
}

ClusterHw::ClusterHw(const ClusterHwConfig& config, util::Rng rng) : config_(config) {
  nodes_.reserve(static_cast<std::size_t>(config.node_count));
  for (int i = 0; i < config.node_count; ++i) {
    NodeConfig node_config = config.node;
    if (config.perf_variation_sigma > 0.0) {
      node_config.perf_multiplier =
          rng.truncated_normal(1.0, config.perf_variation_sigma, 0.5, 1.5);
    }
    nodes_.push_back(std::make_unique<Node>(i, node_config));
  }
}

double ClusterHw::total_power_w() const {
  double total = 0.0;
  for (const auto& n : nodes_) total += n->power_w();
  return total;
}

double ClusterHw::total_energy_j() const {
  double total = 0.0;
  for (const auto& n : nodes_) total += n->total_energy_j();
  return total;
}

double ClusterHw::min_cap_w() const {
  double total = 0.0;
  for (const auto& n : nodes_) total += n->min_cap_w();
  return total;
}

double ClusterHw::max_cap_w() const {
  double total = 0.0;
  for (const auto& n : nodes_) total += n->max_cap_w();
  return total;
}

void ClusterHw::step(double dt_s) {
  for (auto& n : nodes_) n->step(dt_s);
}

std::vector<int> ClusterHw::idle_nodes() const {
  std::vector<int> idle;
  for (const auto& n : nodes_) {
    if (!n->busy()) idle.push_back(n->id());
  }
  return idle;
}

}  // namespace anor::platform
