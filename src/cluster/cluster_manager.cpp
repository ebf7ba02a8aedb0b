#include "cluster/cluster_manager.hpp"

#include <algorithm>
#include <limits>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "workload/job_type.hpp"

namespace anor::cluster {

namespace {

/// The job's cap gauge, looked up in the registry once per ManagedJob.
telemetry::Gauge& cap_gauge(int job_id, ManagedJob& job) {
  if (job.cap_gauge == nullptr) {
    job.cap_gauge = &telemetry::MetricsRegistry::global().gauge(
        "cluster.manager.job_cap_w", {{"job", std::to_string(job_id)}});
  }
  return *job.cap_gauge;
}

}  // namespace

ClusterManager::ClusterManager(ClusterManagerConfig config)
    : config_(std::move(config)),
      budgeter_(budget::instrument_budgeter(config_.budgeter_factory())) {}

void ClusterManager::attach_channel(std::unique_ptr<MessageChannel> channel) {
  ReliableChannelConfig retry = config_.retry;
  // Decorrelate jitter streams across channels while staying deterministic
  // for a fixed attach order.
  retry.jitter_seed = util::splitmix64(retry.jitter_seed ^ (channels_attached_ + 1));
  ++channels_attached_;
  channels_.push_back(std::make_unique<ReliableChannel>(std::move(channel), retry));
}

std::optional<double> ClusterManager::target_at(double now_s) const {
  if (targets_.empty()) return std::nullopt;
  return targets_.sample_at(now_s);
}

model::PowerPerfModel ClusterManager::initial_model_for(const std::string& classified_as) const {
  if (workload::try_find_job_type(classified_as)) {
    return model::model_for_class(classified_as);
  }
  return model::default_model(config_.default_model);
}

bool ClusterManager::handle(const Message& message, MessageChannel& channel, double now_s) {
  auto& registry = telemetry::MetricsRegistry::global();
  // The one lookup of the sender; every branch below works from it.
  const int job_id = job_id_of(message);
  auto it = jobs_.lower_bound(job_id);
  const bool known = it != jobs_.end() && it->first == job_id;
  // Any message refreshes the sender's liveness lease.
  if (known) hear_from(it->second, now_s);

  if (const auto* hello = std::get_if<JobHelloMsg>(&message)) {
    static auto& hellos = registry.counter("cluster.manager.msgs", {{"type", "hello"}});
    hellos.inc();
    ManagedJob job;
    job.job_name = hello->job_name;
    job.classified_as = hello->classified_as;
    job.nodes = hello->nodes;
    job.model = initial_model_for(hello->classified_as);
    job.channel = &channel;
    job.model_updated_s = now_s;
    if (known) {
      it->second = std::move(job);
    } else {
      it = jobs_.emplace_hint(it, job_id, std::move(job));
    }
    hear_from(it->second, now_s);
    // Budget the newcomer right away instead of waiting out the period.
    next_control_s_ = 0.0;
    if (known) {
      static auto& rejoins = registry.counter("liveness.rejoins");
      rejoins.inc();
      util::log_info("cluster-manager", "job " + hello->job_name + " rejoined");
    }
    util::log_debug("cluster-manager", "registered job " + hello->job_name + " as " +
                                           hello->classified_as);
  } else if (const auto* update = std::get_if<ModelUpdateMsg>(&message)) {
    static auto& updates =
        registry.counter("cluster.manager.msgs", {{"type", "model_update"}});
    updates.inc();
    if (!config_.accept_model_updates) return false;
    if (!known) return false;
    const model::PowerPerfModel incoming(update->a, update->b, update->c, update->p_min_w,
                                         update->p_max_w);
    it->second.model_updated_s = now_s;
    if (it->second.model_from_feedback == update->from_feedback &&
        incoming.a() == it->second.model.a() && incoming.b() == it->second.model.b() &&
        incoming.c() == it->second.model.c()) {
      return false;  // periodic republish of the same model: TTL refresh only
    }
    it->second.model = incoming;
    it->second.model_from_feedback = update->from_feedback;
    // Force a cap refresh on the next control step.
    it->second.last_sent_cap_w = -1.0;
  } else if (std::holds_alternative<HeartbeatMsg>(message)) {
    static auto& beats = registry.counter("liveness.heartbeats_received");
    beats.inc();
    if (!known) {
      // A heartbeat from a job we expired: the endpoint is alive but not
      // registered.  It will notice our silence and re-send its hello.
      static auto& orphans = registry.counter("liveness.orphan_heartbeats");
      orphans.inc();
    }
  } else if (std::holds_alternative<JobGoodbyeMsg>(message)) {
    static auto& byes = registry.counter("cluster.manager.msgs", {{"type", "goodbye"}});
    byes.inc();
    if (known) jobs_.erase(it);
    return true;  // channel lifecycle complete
  }
  // PowerBudgetMsg is outbound-only; ignore if echoed.
  return false;
}

void ClusterManager::hear_from(ManagedJob& job, double now_s) {
  job.last_heard_s = now_s;
  oldest_heard_s_ = std::min(oldest_heard_s_, now_s);
}

void ClusterManager::check_liveness(double now_s) {
  // Lease expiry (after lease_s of silence) and suspicion (after
  // suspect_after) each need a job silent for longer than their term.  No
  // job was last heard before oldest_heard_s_, so while that is recent
  // enough for the shorter term neither scan could find one.
  const double suspect_after =
      config_.lease_s > 0.0 ? 0.5 * config_.lease_s
                            : (config_.heartbeat_period_s > 0.0
                                   ? 3.0 * config_.heartbeat_period_s
                                   : 0.0);
  const double inf = std::numeric_limits<double>::infinity();
  const double first_term = std::min(config_.lease_s > 0.0 ? config_.lease_s : inf,
                                     suspect_after > 0.0 ? suspect_after : inf);
  liveness_suspect_ = false;
  if (!(now_s - oldest_heard_s_ > first_term)) return;

  if (config_.lease_s > 0.0) expire_leases(now_s);
  // Integral protection: while any job is past half its lease with no
  // word, the measured-power gap is dominated by the partition, not by
  // allocation error — freeze the integrator until liveness resolves.
  // The same pass tightens the bound to the oldest lease left.
  oldest_heard_s_ = inf;
  for (const auto& [id, job] : jobs_) {
    if (suspect_after > 0.0 && now_s - job.last_heard_s > suspect_after) {
      liveness_suspect_ = true;
    }
    oldest_heard_s_ = std::min(oldest_heard_s_, job.last_heard_s);
  }
}

void ClusterManager::expire_leases(double now_s) {
  auto& registry = telemetry::MetricsRegistry::global();
  static auto& expired = registry.counter("liveness.lease_expired");
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    ManagedJob& job = it->second;
    if (now_s - job.last_heard_s <= config_.lease_s) {
      ++it;
      continue;
    }
    expired.inc();
    ++leases_expired_;
    telemetry::TraceRecorder::global().instant("lease_expired", "liveness", now_s,
                                               static_cast<double>(it->first));
    util::log_warn("cluster-manager",
                   "job " + job.job_name + " silent for over " +
                       std::to_string(config_.lease_s) +
                       " s; declaring dead and reclaiming its budget");
    cap_gauge(it->first, job).set(0.0);
    it = jobs_.erase(it);
    // Redistribute the reclaimed budget immediately.
    next_control_s_ = 0.0;
  }
}

void ClusterManager::expire_stale_models(double now_s) {
  if (config_.model_ttl_s <= 0.0) return;
  static auto& expired =
      telemetry::MetricsRegistry::global().counter("liveness.model_expired");
  for (auto& [id, job] : jobs_) {
    if (!job.model_from_feedback) continue;
    if (now_s - job.model_updated_s <= config_.model_ttl_s) continue;
    expired.inc();
    telemetry::TraceRecorder::global().instant("model_expired", "liveness", now_s,
                                               static_cast<double>(id));
    util::log_warn("cluster-manager", "job " + job.job_name +
                                          ": feedback model stale; reverting to the " +
                                          job.classified_as + " classification");
    job.model = initial_model_for(job.classified_as);
    job.model_from_feedback = false;
    job.model_updated_s = now_s;
    job.last_sent_cap_w = -1.0;
  }
}

void ClusterManager::send_heartbeats(double now_s) {
  if (config_.heartbeat_period_s <= 0.0) return;
  if (now_s + 1e-12 < next_heartbeat_s_) return;
  next_heartbeat_s_ = now_s + config_.heartbeat_period_s;
  static auto& beats =
      telemetry::MetricsRegistry::global().counter("liveness.heartbeats_sent");
  for (auto& [id, job] : jobs_) {
    if (job.channel == nullptr) continue;
    HeartbeatMsg beat;
    beat.job_id = id;
    beat.timestamp_s = now_s;
    // job.channel is a ReliableChannel: a failed send is queued for
    // retry, so the return value carries no signal here.
    (void)job.channel->send(beat);
    beats.inc();
  }
}

void ClusterManager::step(double now_s) {
  for (auto it = channels_.begin(); it != channels_.end();) {
    ReliableChannel* channel = it->get();
    channel->poll(now_s);
    bool done = false;
    while (auto message = channel->receive()) {
      done = handle(*message, *channel, now_s) || done;
    }
    // Drop channels whose job said goodbye or whose peer vanished; any
    // job still referencing the channel loses its send path (and its
    // lease keeps counting down toward reclamation).
    if (done || !channel->connected()) {
      for (auto& [id, job] : jobs_) {
        if (job.channel == channel) job.channel = nullptr;
      }
      it = channels_.erase(it);
    } else {
      ++it;
    }
  }

  check_liveness(now_s);

  send_heartbeats(now_s);
  if (now_s + 1e-12 >= next_control_s_) {
    expire_stale_models(now_s);
    rebudget(now_s);
    next_control_s_ = now_s + config_.control_period_s;
  }
}

void ClusterManager::report_measured_power(double now_s, double measured_w) {
  if (!config_.closed_loop) return;
  const std::optional<double> target = target_at(now_s);
  if (!target) return;
  if (last_measurement_s_ >= 0.0 && now_s > last_measurement_s_) {
    const double dt = now_s - last_measurement_s_;
    const bool stale =
        config_.measurement_stale_s > 0.0 && dt > config_.measurement_stale_s;
    if (stale || liveness_suspect_) {
      static auto& frozen =
          telemetry::MetricsRegistry::global().counter("cluster.manager.integral_frozen");
      frozen.inc();
    } else {
      correction_w_ += config_.integral_gain_per_s * (*target - measured_w) * dt;
      correction_w_ = std::clamp(correction_w_, -config_.correction_limit_w,
                                 config_.correction_limit_w);
      static auto& correction =
          telemetry::MetricsRegistry::global().gauge("cluster.manager.correction_w");
      correction.set(correction_w_);
    }
  }
  last_measurement_s_ = now_s;
}

double ClusterManager::job_budget_at(double target_w) const {
  int busy_nodes = 0;
  for (const auto& [id, job] : jobs_) busy_nodes += job.nodes;
  const int idle_nodes = std::max(0, config_.cluster_nodes - busy_nodes);
  return target_w - idle_nodes * config_.idle_node_power_w;
}

void ClusterManager::rebudget(double now_s) {
  if (jobs_.empty()) return;
  auto& registry = telemetry::MetricsRegistry::global();
  static auto& rebudgets = registry.counter("cluster.manager.rebudgets");
  rebudgets.inc();
  telemetry::TraceRecorder::global().instant("rebudget", "cluster", now_s,
                                             static_cast<double>(jobs_.size()));
  const std::optional<double> target = target_at(now_s);

  // caps[k] belongs to the k-th job in jobs_ order (the profile order).
  std::vector<double> caps;
  if (!target) {
    // No power objective: everyone runs uncapped.
    caps.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) caps.push_back(job.model.p_max_w());
  } else {
    std::vector<budget::JobPowerProfile> profiles;
    profiles.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) {
      budget::JobPowerProfile profile;
      profile.job_id = id;
      profile.nodes = job.nodes;
      profile.model = job.model;
      profiles.push_back(std::move(profile));
    }
    budget::BudgetResult result = budgeter_->distribute(
        profiles, std::max(job_budget_at(*target) + correction_w_, 0.0));
    budget::require_cap_per_job(*budgeter_, result, profiles.size());
    caps = std::move(result.node_cap_w);
  }

  static auto& no_channel = registry.counter("cluster.manager.send_no_channel");
  std::size_t k = 0;
  for (auto& [id, job] : jobs_) {
    const double cap = caps[k++];
    if (job.last_sent_cap_w >= 0.0 && std::abs(cap - job.last_sent_cap_w) < 0.25) {
      continue;  // suppress no-op chatter
    }
    if (job.channel == nullptr) {
      // Disconnected but not yet lease-expired: nothing to send on; the
      // lease will reclaim the budget if the peer never comes back.
      no_channel.inc();
      continue;
    }
    PowerBudgetMsg msg;
    msg.job_id = id;
    msg.node_cap_w = cap;
    msg.timestamp_s = now_s;
    if (job.channel->send(msg)) {
      job.last_sent_cap_w = cap;
      static auto& budget_msgs = registry.counter("cluster.manager.budget_msgs_sent");
      budget_msgs.inc();
      cap_gauge(id, job).set(cap);
    } else {
      static auto& failed = registry.counter("cluster.manager.budget_send_failed");
      failed.inc();
      util::log_warn("cluster-manager",
                     "budget send to " + job.job_name + " failed; will retry");
    }
  }
}

}  // namespace anor::cluster
