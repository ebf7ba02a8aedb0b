// Per-job controller: ties kernels, PlatformIO, agents, the comm tree, and
// the endpoint together for one running job.
//
// One controller exists per job (paper Fig. 2: "1 per job").  It owns a
// synthetic kernel + PlatformIO + power_governor agent per allocated node,
// arranges the agents into the communication tree, and exposes the GEOPM
// endpoint that the job-tier power modeler attaches to.  The emulation
// engine calls `control_step` once per agent period of virtual time.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "geopm/comm_tree.hpp"
#include "geopm/endpoint.hpp"
#include "geopm/platform_io.hpp"
#include "geopm/power_balancer.hpp"
#include "geopm/power_governor.hpp"
#include "geopm/report.hpp"
#include "platform/node.hpp"
#include "telemetry/metrics.hpp"
#include "workload/phased_kernel.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "workload/job_type.hpp"
#include "workload/synthetic_kernel.hpp"

namespace anor::geopm {

enum class AgentKind {
  kPowerGovernor,  // uniform per-node caps (the paper's agent)
  kPowerBalancer,  // shifts power toward lagging nodes within the job
};

struct ControllerConfig {
  double control_period_s = 0.5;
  int tree_fanout = 4;
  AgentKind agent = AgentKind::kPowerGovernor;
  BalancerConfig balancer;
  workload::KernelConfig kernel;
  /// Non-empty: run a multi-phase kernel with these profiles instead of a
  /// single-profile kernel built from the job type.
  std::vector<workload::JobPhase> phases;
  /// Record one trace row per control step (GEOPM's trace files).
  bool trace_enabled = false;
};

/// One control-loop sample, as GEOPM's per-job trace files record.
struct TraceRow {
  double t_s = 0.0;
  double power_w = 0.0;       // job CPU power (sum over nodes)
  double energy_j = 0.0;      // cumulative job CPU energy
  double cap_w = 0.0;         // requested node cap
  long epoch_count = 0;       // global epoch count
};

class JobController {
 public:
  /// Starts the job on the given nodes: attaches one kernel per node and
  /// programs the initial cap (uncapped).  Nodes and clock must outlive
  /// the controller; nodes are released in `teardown()`.
  JobController(std::string job_name, workload::JobType type,
                std::vector<platform::Node*> nodes, const util::VirtualClock& clock,
                util::Rng rng, ControllerConfig config = {});
  ~JobController();

  JobController(const JobController&) = delete;
  JobController& operator=(const JobController&) = delete;

  const std::string& job_name() const { return name_; }
  const workload::JobType& type() const { return type_; }
  int node_count() const { return static_cast<int>(nodes_.size()); }
  const std::vector<platform::Node*>& nodes() const { return nodes_; }

  Endpoint& endpoint() { return endpoint_; }

  /// Run one agent iteration if due at `now_s`: apply any pending endpoint
  /// policy through the tree, then reduce samples and publish the root
  /// sample to the endpoint.
  void control_step(double now_s);

  /// True once every node's kernel finished (multi-node jobs complete when
  /// all nodes reach 100 % progress).
  bool complete() const;

  /// Global epoch count: min over this job's nodes.
  long epoch_count() const;

  /// Detach kernels from nodes and finalize the report.  Idempotent.
  void teardown(double now_s);

  /// Valid after teardown (or for a snapshot mid-run).
  JobReport report() const;

  /// Control-loop trace (empty unless config.trace_enabled).
  const std::vector<TraceRow>& trace() const { return trace_; }
  /// Write the trace as CSV with a header row.
  void write_trace_csv(std::ostream& out) const;

  double start_time_s() const { return start_time_s_; }
  double end_time_s() const { return end_time_s_; }

  /// The node-level cap currently requested via the endpoint (or the
  /// uncapped default before any policy arrives).
  double current_cap_w() const { return current_cap_w_; }

 private:
  std::string name_;
  std::string cap_change_trace_name_;  // "cap_change <job>", built once
  workload::JobType type_;
  std::vector<platform::Node*> nodes_;
  const util::VirtualClock* clock_;
  ControllerConfig config_;

  std::vector<std::shared_ptr<workload::JobKernel>> kernels_;
  std::vector<std::unique_ptr<PlatformIO>> pios_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::unique_ptr<AgentTree> tree_;
  Endpoint endpoint_;

  double start_time_s_ = 0.0;
  double end_time_s_ = 0.0;
  double next_step_s_ = 0.0;
  double current_cap_w_ = 0.0;
  double start_energy_j_ = 0.0;
  std::vector<TraceRow> trace_;
  // Time-weighted cap accumulation for the report.
  double cap_weighted_integral_ = 0.0;
  double last_cap_change_s_ = 0.0;
  bool torn_down_ = false;

  // Per-job cells in the global metrics registry (registry-owned; valid
  // for the process lifetime).
  telemetry::Gauge* power_gauge_ = nullptr;
  telemetry::Gauge* cap_gauge_ = nullptr;
  telemetry::Gauge* epoch_gauge_ = nullptr;
};

}  // namespace anor::geopm
