#include "geopm/controller.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "geopm/signals.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace anor::geopm {

JobController::JobController(std::string job_name, workload::JobType type,
                             std::vector<platform::Node*> nodes,
                             const util::VirtualClock& clock, util::Rng rng,
                             ControllerConfig config)
    : name_(std::move(job_name)),
      cap_change_trace_name_("cap_change " + name_),
      type_(std::move(type)),
      nodes_(std::move(nodes)),
      clock_(&clock),
      config_(config) {
  if (nodes_.empty()) throw std::invalid_argument("JobController: no nodes");
  for (platform::Node* n : nodes_) {
    if (n == nullptr) throw std::invalid_argument("JobController: null node");
    if (n->busy()) throw std::invalid_argument("JobController: node already busy");
  }

  start_time_s_ = clock_->now();
  next_step_s_ = start_time_s_;
  last_cap_change_s_ = start_time_s_;

  kernels_.reserve(nodes_.size());
  pios_.reserve(nodes_.size());
  agents_.reserve(nodes_.size());
  std::vector<Agent*> agent_ptrs;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::shared_ptr<workload::JobKernel> kernel;
    if (config_.phases.empty()) {
      kernel = std::make_shared<workload::SyntheticKernel>(
          type_, rng.child(static_cast<std::uint64_t>(i)), config_.kernel);
    } else {
      kernel = std::make_shared<workload::PhasedKernel>(
          config_.phases, rng.child(static_cast<std::uint64_t>(i)), config_.kernel);
    }
    nodes_[i]->attach_load(kernel);
    auto pio = std::make_unique<PlatformIO>(*nodes_[i], *clock_);
    pio->bind_epoch_source(kernel.get());
    std::unique_ptr<Agent> agent;
    if (config_.agent == AgentKind::kPowerBalancer) {
      agent = std::make_unique<PowerBalancerAgent>(*pio, config_.balancer);
    } else {
      agent = std::make_unique<PowerGovernorAgent>(*pio);
    }
    agent_ptrs.push_back(agent.get());
    kernels_.push_back(std::move(kernel));
    pios_.push_back(std::move(pio));
    agents_.push_back(std::move(agent));
    start_energy_j_ += nodes_[i]->total_energy_j();
  }

  TreeTopology topology;
  topology.node_count = static_cast<int>(nodes_.size());
  topology.fanout = config_.tree_fanout;
  tree_ = std::make_unique<AgentTree>(topology, std::move(agent_ptrs));

  auto& registry = telemetry::MetricsRegistry::global();
  power_gauge_ = &registry.gauge("job.power_w", {{"job", name_}});
  cap_gauge_ = &registry.gauge("job.cap_w", {{"job", name_}});
  epoch_gauge_ = &registry.gauge("job.epoch_count", {{"job", name_}});

  // Jobs inherit whatever RAPL limit the nodes already carry (a fresh
  // node powers up at TDP; a recycled node keeps its last cap, which sits
  // near the cluster's balance point) — the first budget from the cluster
  // tier arrives through the endpoint within a control period.  Starting
  // at the stale cap avoids a full-power spike on every job launch.
  current_cap_w_ = nodes_.front()->effective_cap_w();
}

JobController::~JobController() {
  if (!torn_down_) teardown(clock_->now());
}

void JobController::control_step(double now_s) {
  if (torn_down_ || now_s + 1e-12 < next_step_s_) return;
  next_step_s_ = now_s + config_.control_period_s;
  static auto& steps =
      telemetry::MetricsRegistry::global().counter("job.controller.control_steps");
  static auto& cap_changes =
      telemetry::MetricsRegistry::global().counter("job.controller.cap_changes");
  steps.inc();

  // 1. Apply the newest pending policy from the endpoint, if any, then
  // redistribute the current policy through the tree.  Redistribution
  // runs every step (not only on policy changes) so balancing agents can
  // reshuffle power between nodes as lag evolves; the governor's
  // same-cap writes are suppressed at the leaf, so this is cheap.
  if (auto policy = endpoint_.read_policy()) {
    const double cap = policy->policy[kPolicyPowerCap];
    if (cap != current_cap_w_) {
      cap_weighted_integral_ += current_cap_w_ * (now_s - last_cap_change_s_);
      last_cap_change_s_ = now_s;
      current_cap_w_ = cap;
      cap_changes.inc();
      telemetry::TraceRecorder::global().instant(cap_change_trace_name_, "job", now_s, cap);
    }
  }
  tree_->distribute_policy(Policy{current_cap_w_});

  // 2. Sample the tree and publish the root sample.
  const Sample sample = tree_->reduce_samples();
  power_gauge_->set(sample[kSamplePower]);
  cap_gauge_->set(current_cap_w_);
  epoch_gauge_->set(sample[kSampleEpochCount]);
  if (config_.trace_enabled) {
    TraceRow row;
    row.t_s = now_s;
    row.power_w = sample[kSamplePower];
    row.energy_j = sample[kSampleEnergy];
    row.cap_w = current_cap_w_;
    row.epoch_count = static_cast<long>(sample[kSampleEpochCount]);
    trace_.push_back(row);
  }
  endpoint_.write_sample(now_s, sample);
}

void JobController::write_trace_csv(std::ostream& out) const {
  out << "t_s,power_w,energy_j,cap_w,epoch_count\n";
  for (const TraceRow& row : trace_) {
    out << row.t_s << ',' << row.power_w << ',' << row.energy_j << ',' << row.cap_w << ','
        << row.epoch_count << '\n';
  }
}

bool JobController::complete() const {
  for (const auto& kernel : kernels_) {
    if (!kernel->complete()) return false;
  }
  return true;
}

long JobController::epoch_count() const {
  long min_epoch = kernels_.front()->epoch_count();
  for (const auto& kernel : kernels_) {
    min_epoch = std::min(min_epoch, kernel->epoch_count());
  }
  return min_epoch;
}

void JobController::teardown(double now_s) {
  if (torn_down_) return;
  torn_down_ = true;
  end_time_s_ = now_s;
  cap_weighted_integral_ += current_cap_w_ * (now_s - last_cap_change_s_);
  for (platform::Node* n : nodes_) n->detach_load();
  // One complete ("X") span per job lifetime; X events tolerate overlap
  // on a shared track, unlike B/E pairs.
  telemetry::TraceRecorder::global().complete(name_, "job", start_time_s_,
                                              now_s - start_time_s_);
}

JobReport JobController::report() const {
  JobReport report;
  report.job_name = name_;
  report.node_count = static_cast<int>(nodes_.size());
  const double end = torn_down_ ? end_time_s_ : clock_->now();
  report.runtime_s = end - start_time_s_;
  double compute = 0.0;
  for (const auto& kernel : kernels_) compute = std::max(compute, kernel->compute_elapsed_s());
  report.compute_runtime_s = compute;
  double energy = 0.0;
  for (platform::Node* n : nodes_) energy += n->total_energy_j();
  report.package_energy_j = energy - start_energy_j_;
  report.average_power_w = report.runtime_s > 0.0 ? report.package_energy_j / report.runtime_s
                                                  : 0.0;
  report.epoch_count = epoch_count();
  const double span = end - start_time_s_;
  report.average_cap_w =
      span > 0.0
          ? (cap_weighted_integral_ + (torn_down_ ? 0.0 : current_cap_w_ * (end - last_cap_change_s_))) /
                span
          : current_cap_w_;
  return report;
}

}  // namespace anor::geopm
