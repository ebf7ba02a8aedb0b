// Emulated 16-node cluster running the full ANOR stack end to end.
//
// This is the "real cluster" substitute: every control-plane component is
// the real implementation — GEOPM-like agents reading emulated RAPL MSRs,
// per-job endpoint processes with online modelers, the head-node cluster
// manager with its budgeter, message channels between the tiers — and only
// the silicon is a model.  A discrete-time engine advances the hardware
// and invokes each component at its own cadence on the shared virtual
// clock, so hour-long scenarios (Fig. 9/10) run in well under a second of
// wall time while exercising the same code paths a deployment would.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster_manager.hpp"
#include "cluster/job_endpoint.hpp"
#include "cluster/transport.hpp"
#include "engine/discrete_engine.hpp"
#include "engine/scenario.hpp"
#include "geopm/controller.hpp"
#include "platform/cluster_hw.hpp"
#include "sched/aqa_scheduler.hpp"
#include "sched/qos.hpp"
#include "telemetry/artifact.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time_series.hpp"
#include "workload/schedule.hpp"

namespace anor::cluster {

struct EmulationConfig {
  int node_count = 16;
  platform::NodeConfig node;
  /// Node-to-node performance variation sigma (0 disables).
  double perf_variation_sigma = 0.0;

  /// Hardware/engine step and power-log cadence, virtual seconds.
  double step_s = 0.25;
  double log_period_s = 1.0;

  ClusterManagerConfig manager;
  JobEndpointConfig endpoint;
  geopm::ControllerConfig controller;
  sched::SchedulerConfig scheduler;  // cluster_nodes overwritten from node_count
  sched::QosConstraint qos;

  /// Jobs whose *true* type name appears here execute as multi-phase
  /// kernels with the given profiles instead of their single-profile
  /// curve (paper Sec. 8: jobs with several power-sensitivity profiles).
  std::map<std::string, std::vector<workload::JobPhase>> phase_overrides;

  double inproc_latency_s = 0.01;
  std::uint64_t seed = 1;
  /// Hard stop (guards against schedules that cannot drain).
  double max_duration_s = 6.0 * 3600.0;
};

/// Both backends share the engine's record and result types; the old
/// cluster-local names remain as aliases.
using CompletedJob = engine::CompletedJob;
using EmulationResult = engine::RunResult;

/// Unconstrained runtime of a job type under the emulation's kernel
/// configuration (setup + uncapped compute + teardown).
double uncapped_runtime_s(const workload::JobType& type,
                          const workload::KernelConfig& kernel);

class EmulatedCluster {
 public:
  /// Wraps a tier channel at creation time (fault injection decorates
  /// here).  `manager_side` distinguishes the two directions of a pair.
  using ChannelDecorator = std::function<std::unique_ptr<MessageChannel>(
      std::unique_ptr<MessageChannel> inner, int job_id, bool manager_side)>;
  /// Invoked once per engine step after jobs are admitted/started and
  /// before the control stack runs (fault schedules fire here).
  using StepHook = std::function<void(EmulatedCluster& cluster, double now_s)>;

  EmulatedCluster(EmulationConfig config, workload::Schedule schedule);
  /// Movable so factories can return by value (step() binds the thread's
  /// trace and log clock for its own duration, so a move before the run
  /// starts is safe).
  EmulatedCluster(EmulatedCluster&&) = default;

  /// Time-varying cluster power targets (watts).  Optional: without them
  /// the cluster runs unconstrained.
  void set_power_targets(util::TimeSeries targets);

  /// Sample the given artifact writer at the power-log cadence for the
  /// rest of the run.  The writer must outlive the cluster (or be
  /// detached with nullptr); the caller finalizes it.
  void attach_artifacts(telemetry::RunArtifactWriter* artifacts) { artifacts_ = artifacts; }

  /// Run until the schedule drains (or max_duration_s) and hand the
  /// result over by move.  Callable once: a second call throws
  /// std::logic_error.
  EmulationResult run();

  /// Single-step interface for tests.  Returns false when finished.
  bool step();

  const util::VirtualClock& clock() const { return clock_; }
  const platform::ClusterHw& hardware() const { return *hw_; }
  /// Mutable hardware access (fault injection installs MSR fault hooks).
  platform::ClusterHw& hardware_mut() { return *hw_; }
  ClusterManager& manager() { return manager_; }
  std::size_t running_jobs() const { return running_.size(); }
  bool finished() const { return done_; }

  /// Install a decorator applied to every tier channel created from now
  /// on (both sides of each job's pair).  Set before run().
  void set_channel_decorator(ChannelDecorator decorator) {
    channel_decorator_ = std::move(decorator);
  }
  /// Install a hook invoked each engine step (crash schedules, probes).
  void set_step_hook(StepHook hook) { step_hook_ = std::move(hook); }

  /// Abruptly kill a running job's endpoint process: no goodbye, its
  /// channel drops, the manager's lease must reap the job.  The job's
  /// kernels keep running at their last applied cap.  Returns false when
  /// the job is not running or already crashed.
  bool crash_job_endpoint(int job_id);
  /// Restart a crashed endpoint on a fresh channel; it re-sends JobHello
  /// and rejoins the manager.  Returns false when not running/crashed.
  bool restart_job_endpoint(int job_id);
  /// IDs of currently running jobs (in start order).
  std::vector<int> running_job_ids() const;
  /// The job's endpoint process; nullptr when not running or crashed.
  JobEndpointProcess* endpoint(int job_id);

  /// Feasible power envelope right now: the floor is busy nodes at their
  /// minimum caps plus idle nodes at idle power; the ceiling is each
  /// running job's maximum draw plus idle power.  Facility-level
  /// coordination (cluster/facility.hpp) splits power by these.
  double min_feasible_power_w() const;
  double max_feasible_power_w() const;

 private:
  struct RunningJob {
    workload::JobRequest request;
    std::vector<int> node_ids;
    /// Endpoint-side channel (possibly decorated); the manager side is
    /// handed to the manager at start.
    std::unique_ptr<MessageChannel> endpoint_channel;
    std::unique_ptr<geopm::JobController> controller;
    std::unique_ptr<JobEndpointProcess> endpoint;
  };

  void admit_arrivals();
  void start_jobs();
  void finish_completed_jobs();
  /// Register the emulation's phases on the shared engine (invocation
  /// order is the determinism contract — see build_engine's body).  Built
  /// lazily at the first step so the components' `this` captures survive
  /// a pre-run move of the cluster object.
  void build_engine();
  /// The log-cadence component: record power/target series, telemetry
  /// gauges, and artifact samples.
  void sample_log(double now_s);
  /// Create the channel pair (decorated), attach the manager side, and
  /// build the endpoint process.  Used at job start and endpoint restart.
  void make_endpoint(RunningJob& job);
  sched::SchedulerView make_view() const;

  EmulationConfig config_;
  workload::Schedule schedule_;
  std::size_t next_arrival_ = 0;

  util::VirtualClock clock_;
  util::Rng rng_;
  std::unique_ptr<platform::ClusterHw> hw_;
  sched::AqaScheduler scheduler_;
  ClusterManager manager_;
  std::map<int, workload::JobRequest> queued_;  // submitted, not yet started

  std::vector<std::unique_ptr<RunningJob>> running_;
  std::set<int> free_nodes_;

  EmulationResult result_;
  telemetry::RunArtifactWriter* artifacts_ = nullptr;
  ChannelDecorator channel_decorator_;
  StepHook step_hook_;
  std::unique_ptr<engine::DiscreteEngine> engine_;
  double busy_node_seconds_ = 0.0;
  bool done_ = false;
  bool result_taken_ = false;  // run() handed result_ over
};

}  // namespace anor::cluster
