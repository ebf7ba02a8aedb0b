// Job-tier endpoint process (paper Fig. 2: "Power Modeler", 1 per job).
//
// Runs on (one of) a job's compute nodes, bridging the GEOPM endpoint to
// the cluster tier: it reads epoch samples out of the endpoint's shared
// memory, feeds the online modeler, forwards power budgets from the
// cluster manager into the endpoint as agent policies, and — when
// feedback is enabled — publishes improved models upward.  Two feedback
// mechanisms mirror the paper: a quadratic refit once observations span
// enough caps (Sec. 4.2), and misclassification detection against the
// precharacterized curves (Sec. 6.1.2) for the static-cap regime.
//
// Failure model: all sends go through a ReliableChannel (sequence
// stamping, retry with backoff, bounded outbox), the endpoint heartbeats
// the manager so its liveness lease stays fresh, and it republishes its
// served feedback model periodically so the manager's staleness TTL does
// not lapse while the job is healthy.  When the manager goes quiet the
// endpoint holds its last cap for the quiet window, then decays the
// applied cap toward a safe cap — a partitioned job must not keep burning
// a power allocation nobody is accounting for — and re-sends its hello to
// rejoin cleanly once the partition heals.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/messages.hpp"
#include "cluster/reliable_channel.hpp"
#include "cluster/transport.hpp"
#include "geopm/endpoint.hpp"
#include "model/modeler.hpp"
#include "model/reclassify.hpp"

namespace anor::cluster {

struct JobEndpointConfig {
  /// How often the endpoint process runs its loop, seconds.
  double period_s = 1.0;
  /// Feedback off = never publish model updates (the "misclassified"
  /// policy); on = publish refits/reclassifications (the "adjusted" one).
  bool feedback_enabled = true;
  model::ReclassifierConfig reclassifier;

  /// Cap probing: when the served model has diverged but no candidate is
  /// *decisively* better (several precharacterized curves cross near the
  /// current cap, so absolute epoch times cannot separate them), the
  /// endpoint dithers the applied cap through {-delta, 0, +delta} around
  /// the budget.  Observations at distinct caps expose the curve's slope,
  /// disambiguating the candidates — and giving the quadratic refit the
  /// cap diversity it needs.  Mean applied power is budget-neutral.
  bool probe_enabled = true;
  double probe_delta_w = 20.0;
  double probe_dwell_s = 6.0;
  /// Commit a model swap only when the best candidate's error undercuts
  /// the runner-up's by at least this margin (absolute, on mean relative
  /// error).  Epoch rates resolve to well under 1 % per cap level, so
  /// near-ties are within measurement noise — probing separates them.
  double decision_margin = 0.015;

  /// Liveness heartbeat cadence toward the manager (0 disables).
  double heartbeat_period_s = 2.0;
  /// Degrade after the manager has been silent this long (0 disables).
  double manager_quiet_after_s = 10.0;
  /// While degraded, walk the applied cap toward the safe cap at this
  /// rate; hello is also re-sent at the quiet cadence to rejoin.
  double safe_cap_decay_w_per_s = 4.0;
  /// Fallback cap while partitioned; 0 derives it from the served model's
  /// p_min (the lowest cap the job is characterized at).
  double safe_cap_w = 0.0;
  /// Republish the served feedback model at this cadence so the manager's
  /// model-staleness TTL stays fresh (0 disables).
  double model_republish_s = 20.0;
  /// Retry/backoff/dedup settings for the channel to the manager.
  ReliableChannelConfig retry;
};

class JobEndpointProcess {
 public:
  /// `endpoint` is the GEOPM endpoint of the job's controller; `channel`
  /// connects to the cluster manager.  Both must outlive this object.
  /// `start_time_s` is the virtual time the job started (its initial
  /// uncapped power level is recorded from then).  Sends JobHello
  /// immediately.
  /// `initial_cap_w` is the cap the job's nodes carry at start (fresh
  /// nodes power up at TDP; recycled nodes keep their last cap).
  JobEndpointProcess(int job_id, std::string job_name, std::string classified_as, int nodes,
                     model::PowerPerfModel initial_model, geopm::Endpoint& endpoint,
                     MessageChannel& channel, double start_time_s = 0.0,
                     JobEndpointConfig config = {},
                     double initial_cap_w = workload::kNodeMaxCapW);

  int job_id() const { return job_id_; }
  double next_due_s() const { return next_step_s_; }
  const model::OnlineModeler& modeler() const { return modeler_; }
  bool published_feedback() const { return published_feedback_; }
  double current_cap_w() const { return current_cap_w_; }
  bool probing() const { return probing_; }
  /// True while the manager has been silent past the quiet window and the
  /// endpoint is decaying toward the safe cap.
  bool degraded() const { return degraded_; }
  /// The cap the endpoint falls back to while partitioned.
  double safe_cap_w() const;
  const ReliableChannel& reliable() const { return reliable_; }

  /// One iteration of the endpoint loop at virtual time `now_s`:
  /// 1. retry pending sends and apply any budget messages to the agent,
  /// 2. heartbeat the manager / detect a quiet manager and degrade,
  /// 3. drain agent samples into the modeler,
  /// 4. if feedback produced a better model, publish it.
  void step(double now_s);

  /// Send JobGoodbye (call at job completion).
  void finish(double now_s);

 private:
  void send_hello(double now_s);
  void publish_model(double now_s, const model::PowerPerfModel& model, bool from_feedback);
  /// Push cap (+ probe dither when active) into the agent policy.
  void apply_cap(double now_s);
  void check_manager_liveness(double now_s);
  void run_feedback(double now_s);

  int job_id_;
  std::string job_name_;
  std::string classified_as_;
  int nodes_;
  geopm::Endpoint* endpoint_;
  MessageChannel* channel_;
  JobEndpointConfig config_;
  ReliableChannel reliable_;

  model::OnlineModeler modeler_;
  model::Reclassifier reclassifier_;
  /// What the cluster tier currently budgets this job with (initially the
  /// classified model; replaced by published feedback).
  model::PowerPerfModel served_model_;
  double next_step_s_ = 0.0;
  double current_cap_w_ = 0.0;
  bool published_feedback_ = false;
  std::optional<std::string> reclassified_to_;

  // Liveness state.
  double last_mgr_heard_s_ = 0.0;
  bool degraded_ = false;
  double next_heartbeat_s_ = 0.0;
  double next_hello_retry_s_ = 0.0;
  double next_model_republish_s_ = 0.0;

  // Probe state.
  bool probing_ = false;
  int probe_level_ = 0;           // cycles 0, +1, -1
  double probe_next_flip_s_ = 0.0;
  double probe_log_next_s_ = 0.0;
  double applied_cap_w_ = -1.0;   // last cap actually written to the agent

  // Feedback scores, kept while the modeler's revision and the served
  // model stay the same (run_feedback's decisions still run every step).
  std::uint64_t scored_revision_ = ~std::uint64_t{0};  // none scored yet
  bool served_error_valid_ = false;
  bool ranking_valid_ = false;
  double served_error_ = 0.0;
  long clean_epochs_ = 0;
  double refit_error_ = 0.0;
  std::vector<std::pair<double, std::size_t>> ranking_;

  // Per-step scratch, kept so the loop does not allocate once warm.
  std::vector<geopm::TimedSample> samples_;
};

}  // namespace anor::cluster
