// Cluster-tier power manager (paper Fig. 2: "Cluster Power Budgeter",
// 1 per cluster, on the head node).
//
// "The cluster-tier manager periodically reads cluster power targets from
// a file, receives messages from nodes running jobs, calculates how to
// distribute available power to jobs, and sends messages to inform each
// job-tier endpoint of the job's new power cap." (Sec. 4)
//
// Failure model: every attached channel is wrapped in a ReliableChannel
// (sequence stamping, retry with backoff, duplicate rejection).  Jobs
// hold a liveness lease refreshed by any message — heartbeats included —
// and a silent job is declared dead after `lease_s`: its budget is
// reclaimed and redistributed on the next control step, and a later
// JobHello rejoins it cleanly.  Feedback models carry a staleness TTL;
// when it lapses the manager falls back to the classified/default model
// rather than trusting a model nobody is refreshing.  The closed-loop
// integral term freezes while measured-power telemetry is stale or any
// job's liveness is in doubt, so a partition cannot wind it up.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "budget/budgeter.hpp"
#include "cluster/messages.hpp"
#include "cluster/reliable_channel.hpp"
#include "cluster/transport.hpp"
#include "model/default_models.hpp"
#include "util/time_series.hpp"

namespace anor::telemetry {
class Gauge;
}  // namespace anor::telemetry

namespace anor::cluster {

struct ClusterManagerConfig {
  /// Budget recompute / target refresh cadence, seconds.
  double control_period_s = 2.0;
  /// Builds the budgeter (the policy's); the manager wraps its product in
  /// budget::instrument_budgeter.
  budget::BudgeterFactory budgeter_factory = budget::even_slowdown_factory();
  /// Initial model for jobs whose classified type is unknown.
  model::DefaultModelPolicy default_model = model::DefaultModelPolicy::kLeastSensitive;
  /// Accept model updates from the job tier (the feedback path).  When
  /// false, updates are ignored — the "misclassified, no feedback" case.
  bool accept_model_updates = true;
  /// Total cluster nodes and per-idle-node power, for headroom accounting
  /// (matches the platform's 2 x 18 W package idle draw).
  int cluster_nodes = 16;
  double idle_node_power_w = 36.0;

  /// Closed-loop tracking (paper Fig. 1: "Measured Power" flows up to the
  /// cluster tier): an integral term on (target - measured) compensates
  /// for allocation the open-loop budget cannot see — idle nodes, jobs in
  /// low-power setup/teardown, cap-vs-draw gaps.
  bool closed_loop = true;
  double integral_gain_per_s = 0.05;
  double correction_limit_w = 400.0;
  /// Freeze the integral when consecutive power measurements are further
  /// apart than this (stale telemetry must not wind it up).
  double measurement_stale_s = 6.0;

  /// Liveness: manager-to-endpoint heartbeat cadence (0 disables).
  double heartbeat_period_s = 2.0;
  /// A job silent for longer than this is declared dead and its budget
  /// reclaimed (0 disables lease expiry).
  double lease_s = 12.0;
  /// A feedback model older than this reverts to the classified/default
  /// model (0 disables the TTL).  Endpoints republish their served model
  /// periodically to keep a live model fresh.
  double model_ttl_s = 60.0;
  /// Retry/backoff/dedup settings applied to every attached channel.
  ReliableChannelConfig retry;
};

/// Per-job state the manager tracks.
struct ManagedJob {
  std::string job_name;
  std::string classified_as;
  int nodes = 1;
  model::PowerPerfModel model;
  bool model_from_feedback = false;
  double last_sent_cap_w = -1.0;
  MessageChannel* channel = nullptr;
  /// Liveness lease: virtual time any message from this job last arrived.
  double last_heard_s = 0.0;
  /// When the current (feedback) model was last refreshed.
  double model_updated_s = 0.0;
  /// The job's cluster.manager.job_cap_w{job=…} gauge, resolved at its
  /// first budget send (registry entries are never removed), so later
  /// sends skip the label build and the registry lock.
  telemetry::Gauge* cap_gauge = nullptr;
};

class ClusterManager {
 public:
  explicit ClusterManager(ClusterManagerConfig config);

  /// Power targets over time (watts); replaces any previous series.
  /// An empty series clears tracking (budget = unconstrained).
  void set_power_targets(util::TimeSeries targets) { targets_ = std::move(targets); }

  /// Attach (and take ownership of) the manager side of a job's channel;
  /// it is wrapped in a ReliableChannel internally.  The manager releases
  /// it after the job's goodbye or when the peer disconnects.
  /// Registration completes when the JobHello arrives.
  void attach_channel(std::unique_ptr<MessageChannel> channel);

  /// One manager iteration: drain job messages, expire dead leases and
  /// stale models, and at the control cadence recompute budgets, push
  /// caps, and heartbeat the endpoints.
  void step(double now_s);

  /// Feed the facility's cluster power measurement (paper Sec. 5.4: the
  /// manager "periodically receives CPU power measurements").  Drives the
  /// closed-loop correction; a no-op when closed_loop is off or no target
  /// is set.  Stale measurements freeze the integral instead of winding
  /// it up.
  void report_measured_power(double now_s, double measured_w);

  /// Current closed-loop correction, watts (diagnostic).
  double correction_w() const { return correction_w_; }

  /// Current target (zero-order hold); nullopt when no targets are set.
  std::optional<double> target_at(double now_s) const;

  std::size_t active_jobs() const { return jobs_.size(); }
  const std::map<int, ManagedJob>& jobs() const { return jobs_; }
  const ClusterManagerConfig& config() const { return config_; }

  /// Jobs whose lease has been silent for over half its term (diagnostic;
  /// also freezes the closed-loop integral).
  bool liveness_suspect() const { return liveness_suspect_; }
  /// Jobs declared dead over the manager's lifetime.
  std::uint64_t leases_expired() const { return leases_expired_; }

  /// Exposed for tests: compute the budget available to jobs at a target,
  /// after reserving idle-node power.
  double job_budget_at(double target_w) const;

 private:
  /// Returns true when the channel finished its lifecycle (job goodbye)
  /// and should be detached.
  bool handle(const Message& message, MessageChannel& channel, double now_s);
  /// Refresh a job's lease.
  void hear_from(ManagedJob& job, double now_s);
  /// Expire silent leases and set liveness_suspect_, scanning the jobs
  /// only when oldest_heard_s_ says one of them may be overdue.
  void check_liveness(double now_s);
  void expire_leases(double now_s);
  void expire_stale_models(double now_s);
  void send_heartbeats(double now_s);
  void rebudget(double now_s);
  model::PowerPerfModel initial_model_for(const std::string& classified_as) const;

  ClusterManagerConfig config_;
  std::unique_ptr<budget::Budgeter> budgeter_;
  util::TimeSeries targets_;
  std::vector<std::unique_ptr<ReliableChannel>> channels_;
  std::map<int, ManagedJob> jobs_;
  double next_control_s_ = 0.0;
  double next_heartbeat_s_ = 0.0;
  double correction_w_ = 0.0;
  double last_measurement_s_ = -1.0;
  bool liveness_suspect_ = false;
  /// No job was last heard before this: a lower bound on the oldest lease,
  /// made exact by each liveness scan (leases only grow in between).
  double oldest_heard_s_ = 0.0;
  std::uint64_t leases_expired_ = 0;
  std::uint64_t channels_attached_ = 0;
};

}  // namespace anor::cluster
