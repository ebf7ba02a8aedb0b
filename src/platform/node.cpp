#include "platform/node.hpp"

#include <stdexcept>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace anor::platform {

Node::Node(int node_id, const NodeConfig& config) : id_(node_id), config_(config) {
  if (config.package_count < 1) throw std::invalid_argument("Node: package_count < 1");
  packages_.reserve(static_cast<std::size_t>(config.package_count));
  for (int i = 0; i < config.package_count; ++i) {
    packages_.emplace_back(config.package);
  }
}

double Node::min_cap_w() const {
  return config_.package.min_cap_w * package_count();
}

double Node::max_cap_w() const {
  return config_.package.max_cap_w * package_count();
}

double Node::tdp_w() const { return config_.package.tdp_w * package_count(); }

void Node::set_power_cap(double node_cap_w) {
  static auto& limit_writes =
      telemetry::MetricsRegistry::global().counter("node.rapl.limit_writes");
  static auto& clamped = telemetry::MetricsRegistry::global().counter("node.rapl.cap_clamped");
  const double per_package = node_cap_w / package_count();
  if (per_package < config_.package.min_cap_w || per_package > config_.package.max_cap_w) {
    clamped.inc();
    auto& tracer = telemetry::TraceRecorder::global();
    tracer.instant("node.rapl.cap_clamped", "platform", tracer.clock_now(), per_package);
  }
  for (auto& pkg : packages_) {
    const PkgPowerLimit limit{per_package, 1.0, true, true};
    pkg.msr().write(kMsrPkgPowerLimit, limit.encode(pkg.units()));
    limit_writes.inc();
  }
}

double Node::effective_cap_w() const {
  double total = 0.0;
  for (const auto& pkg : packages_) total += pkg.effective_cap_w();
  return total;
}

double Node::power_w() const {
  double total = 0.0;
  for (const auto& pkg : packages_) total += pkg.power_w();
  return total;
}

double Node::total_energy_j() const {
  double total = 0.0;
  for (const auto& pkg : packages_) total += pkg.total_energy_j();
  return total;
}

void Node::step(double dt_s) {
  if (dt_s <= 0.0) return;
  const double cap = effective_cap_w();
  double demand = 0.0;
  if (load_ != nullptr) {
    // A slower node (multiplier > 1) takes proportionally longer per unit
    // of work; we express that by shrinking its effective time step.
    const double rate_scale = config_.perf_multiplier > 0.0 ? 1.0 / config_.perf_multiplier : 0.0;
    load_->advance(dt_s * rate_scale, cap);
    demand = load_->power_demand_w(cap);
  }
  const double per_package_demand = demand / package_count();
  for (auto& pkg : packages_) pkg.step(dt_s, per_package_demand);
}

}  // namespace anor::platform
