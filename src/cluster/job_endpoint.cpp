#include "cluster/job_endpoint.hpp"

#include <algorithm>
#include <string_view>

#include "geopm/signals.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/logging.hpp"

namespace anor::cluster {

namespace {

ReliableChannelConfig endpoint_retry_config(const JobEndpointConfig& config, int job_id) {
  ReliableChannelConfig retry = config.retry;
  // Decorrelate jitter across endpoints while keeping a fixed seed per job.
  retry.jitter_seed =
      util::splitmix64(retry.jitter_seed ^ (static_cast<std::uint64_t>(job_id) + 0x9e37ULL));
  return retry;
}

}  // namespace

JobEndpointProcess::JobEndpointProcess(int job_id, std::string job_name,
                                       std::string classified_as, int nodes,
                                       model::PowerPerfModel initial_model,
                                       geopm::Endpoint& endpoint, MessageChannel& channel,
                                       double start_time_s, JobEndpointConfig config,
                                       double initial_cap_w)
    : job_id_(job_id),
      job_name_(std::move(job_name)),
      classified_as_(std::move(classified_as)),
      nodes_(nodes),
      endpoint_(&endpoint),
      channel_(&channel),
      config_(config),
      reliable_(channel, endpoint_retry_config(config, job_id)),
      modeler_(initial_model),
      reclassifier_(model::standard_candidates(), config.reclassifier),
      served_model_(std::move(initial_model)) {
  reliable_.poll(start_time_s);
  send_hello(start_time_s);
  next_step_s_ = start_time_s;
  last_mgr_heard_s_ = start_time_s;  // grace: the lease clock starts now
  next_heartbeat_s_ = start_time_s;
  // Record the cap the nodes already carry so the first epoch
  // observations attribute to the right power level.  No policy write is
  // needed until the cap changes.
  current_cap_w_ = initial_cap_w;
  applied_cap_w_ = initial_cap_w;
  modeler_.record_cap(start_time_s, initial_cap_w);
}

void JobEndpointProcess::send_hello(double now_s) {
  JobHelloMsg hello;
  hello.job_id = job_id_;
  hello.job_name = job_name_;
  hello.classified_as = classified_as_;
  hello.nodes = nodes_;
  hello.timestamp_s = now_s;
  reliable_.send(hello);
}

double JobEndpointProcess::safe_cap_w() const {
  if (config_.safe_cap_w > 0.0) return config_.safe_cap_w;
  return served_model_.p_min_w();
}

void JobEndpointProcess::publish_model(double now_s, const model::PowerPerfModel& model,
                                       bool from_feedback) {
  ModelUpdateMsg msg;
  msg.job_id = job_id_;
  msg.a = model.a();
  msg.b = model.b();
  msg.c = model.c();
  msg.p_min_w = model.p_min_w();
  msg.p_max_w = model.p_max_w();
  msg.r2 = model.r2();
  msg.from_feedback = from_feedback;
  msg.timestamp_s = now_s;
  reliable_.send(msg);
  if (from_feedback) published_feedback_ = true;
  if (config_.model_republish_s > 0.0) {
    next_model_republish_s_ = now_s + config_.model_republish_s;
  }
}

void JobEndpointProcess::apply_cap(double now_s) {
  double cap = current_cap_w_;
  if (probing_) {
    if (now_s + 1e-9 >= probe_next_flip_s_) {
      probe_level_ = (probe_level_ + 1) % 3;  // 0 -> +1 -> -1 -> 0 ...
      probe_next_flip_s_ = now_s + config_.probe_dwell_s;
    }
    const int sign = probe_level_ == 1 ? 1 : (probe_level_ == 2 ? -1 : 0);
    cap += sign * config_.probe_delta_w;
  }
  if (cap != applied_cap_w_) {
    applied_cap_w_ = cap;
    modeler_.record_cap(now_s, cap);
    endpoint_->write_policy(now_s, geopm::Policy{cap});
  }
}

void JobEndpointProcess::check_manager_liveness(double now_s) {
  if (config_.manager_quiet_after_s <= 0.0) return;
  auto& registry = telemetry::MetricsRegistry::global();
  if (now_s - last_mgr_heard_s_ <= config_.manager_quiet_after_s) {
    if (degraded_) {
      degraded_ = false;
      static auto& recovered = registry.counter("liveness.manager_recovered");
      recovered.inc();
      telemetry::TraceRecorder::global().instant("manager_recovered", "liveness", now_s,
                                                 static_cast<double>(job_id_));
      util::log_info("job-endpoint", job_name_ + ": manager back; leaving degraded mode");
    }
    return;
  }
  if (!degraded_) {
    degraded_ = true;
    next_hello_retry_s_ = now_s;  // start rejoin attempts immediately
    static auto& quiet = registry.counter("liveness.manager_quiet");
    quiet.inc();
    telemetry::TraceRecorder::global().instant("manager_quiet", "liveness", now_s,
                                               static_cast<double>(job_id_));
    util::log_warn("job-endpoint",
                   job_name_ + ": manager silent for over " +
                       std::to_string(config_.manager_quiet_after_s) +
                       " s; holding cap and decaying toward the safe cap");
  }
  // Hold-last-value already elapsed (the quiet window); now walk the cap
  // toward the safe cap so an unaccounted job sheds its allocation.
  const double floor = safe_cap_w();
  if (current_cap_w_ > floor && config_.safe_cap_decay_w_per_s > 0.0) {
    current_cap_w_ = std::max(
        floor, current_cap_w_ - config_.safe_cap_decay_w_per_s * config_.period_s);
    static auto& decays = registry.counter("liveness.safe_cap_decays");
    decays.inc();
  }
  // Rejoin: a quiet manager may have expired our lease; re-announce.
  if (now_s + 1e-9 >= next_hello_retry_s_) {
    send_hello(now_s);
    next_hello_retry_s_ = now_s + config_.manager_quiet_after_s;
    static auto& rejoin = registry.counter("liveness.rejoin_hellos");
    rejoin.inc();
  }
}

void JobEndpointProcess::step(double now_s) {
  if (now_s + 1e-12 < next_step_s_) return;
  next_step_s_ = now_s + config_.period_s;

  // 0. Drive pending retries on the virtual clock.
  reliable_.poll(now_s);

  // 1. Budgets from the cluster manager -> agent policy + cap history.
  //    Every inbound message (heartbeats included) refreshes the
  //    manager-liveness clock.
  while (auto message = reliable_.receive()) {
    last_mgr_heard_s_ = now_s;
    if (const auto* budget = std::get_if<PowerBudgetMsg>(&*message)) {
      current_cap_w_ = budget->node_cap_w;
    }
  }
  check_manager_liveness(now_s);
  apply_cap(now_s);

  // 2. Heartbeat upward so the manager's lease on this job stays fresh.
  if (config_.heartbeat_period_s > 0.0 && now_s + 1e-12 >= next_heartbeat_s_) {
    HeartbeatMsg beat;
    beat.job_id = job_id_;
    beat.timestamp_s = now_s;
    reliable_.send(beat);
    next_heartbeat_s_ = now_s + config_.heartbeat_period_s;
  }

  // 3. Agent samples -> modeler observations.  Spans use the precise
  // epoch-completion timestamps GEOPM reports, not the coarser sample
  // times — the difference is the sampling-grid quantization that
  // otherwise blurs seconds-per-epoch (paper Sec. 7.2).
  endpoint_->read_samples(samples_);
  for (const geopm::TimedSample& sample : samples_) {
    const auto epoch_count = static_cast<long>(sample.sample[geopm::kSampleEpochCount]);
    const double epoch_time = sample.sample[geopm::kSampleEpochTime];
    modeler_.add_epoch_sample(epoch_time > 0.0 ? epoch_time : sample.timestamp_s,
                              epoch_count);
  }

  // 4. Feedback upward.
  if (config_.feedback_enabled) run_feedback(now_s);

  // 5. Keep the manager's model TTL fresh while we are the model source.
  if (published_feedback_ && config_.model_republish_s > 0.0 &&
      now_s + 1e-9 >= next_model_republish_s_) {
    publish_model(now_s, served_model_, true);
  }
}

void JobEndpointProcess::run_feedback(double now_s) {
  // Candidates compete on prediction error against the clean (single-cap)
  // observations: the online quadratic refit (when cap diversity allowed
  // one) and the precharacterized curves.  A swap is published only when
  // the winner beats BOTH the served model (improvement_factor) and the
  // runner-up candidate (ambiguity_factor) — several curves cross near
  // any single cap, so without the latter check a near-tie could install
  // a model with the wrong slope.  While the decision is ambiguous, cap
  // probing dithers the applied cap to expose the slope.
  // Everything below scores against the modeler's pool of the clean
  // observations.  The scores are pure functions of that pool, the
  // served model and the modeler's refit, so they are kept until the
  // modeler's revision or the served model changes; the window changes at
  // most once per >= 4 s span, the loop runs every period.
  const std::span<const model::CapAggregate> pool = modeler_.clean_pool();
  if (pool.empty()) return;
  if (scored_revision_ != modeler_.revision()) {
    scored_revision_ = modeler_.revision();
    served_error_valid_ = false;
    ranking_valid_ = false;
    clean_epochs_ = 0;
    for (const model::CapAggregate& aggregate : pool) clean_epochs_ += aggregate.epochs;
  }
  if (!served_error_valid_) {
    served_error_ = model::Reclassifier::mean_relative_error(served_model_, pool);
    served_error_valid_ = true;
  }
  const double served_error = served_error_;
  if (served_error <= config_.reclassifier.divergence_threshold) {
    probing_ = false;
    return;
  }

  if (clean_epochs_ < config_.reclassifier.min_epochs) return;

  // Rank the precharacterized candidates; the online refit competes
  // separately.  A named curve comparable in error to the refit wins the
  // tie: library curves are trustworthy over the whole cap range, while a
  // refit is only supported where it was observed.
  if (!ranking_valid_) {
    reclassifier_.ranked(pool, ranking_);
    if (modeler_.has_fitted_model()) {
      refit_error_ = model::Reclassifier::mean_relative_error(modeler_.model(), pool);
    }
    ranking_valid_ = true;
  }
  if (ranking_.empty()) return;
  const std::vector<model::NamedModel>& candidates = reclassifier_.candidates();
  const model::NamedModel& best = candidates[ranking_.front().second];
  double best_error = ranking_.front().first;
  const std::string* winner_name = &best.name;
  const model::PowerPerfModel* winner_model = &best.model;
  double runner_up_error = ranking_.size() > 1 ? ranking_[1].first : best_error + 10.0;
  std::string_view runner_up_name =
      ranking_.size() > 1 ? std::string_view(candidates[ranking_[1].second].name) : "(none)";
  if (modeler_.has_fitted_model() && refit_error_ + 0.5 * config_.decision_margin < best_error) {
    // The refit is decisively better than every library curve: the job
    // genuinely matches no precharacterized type.
    static const std::string kOnlineRefit = "online-refit";
    winner_name = &kOnlineRefit;
    winner_model = &modeler_.model();
    runner_up_error = best_error;
    runner_up_name = best.name;
    best_error = refit_error_;
  }

  const bool improves =
      best_error <= served_error * config_.reclassifier.improvement_factor;
  const bool decisive = runner_up_error - best_error >= config_.decision_margin;

  if (improves && decisive) {
    probing_ = false;
    served_model_ = *winner_model;
    served_error_valid_ = false;
    reclassified_to_ = *winner_name;
    publish_model(now_s, served_model_, true);
    util::log_debug("job-endpoint",
                    job_name_ + ": feedback model '" + *winner_name + "' replaces " +
                        classified_as_ + " (error " + std::to_string(best_error) +
                        " vs served " + std::to_string(served_error) + ")");
    return;
  }
  if (improves && config_.probe_enabled && !probing_) {
    probing_ = true;
    probe_level_ = 0;
    probe_next_flip_s_ = now_s;  // start dithering immediately
    util::log_debug("job-endpoint",
                    job_name_ + ": candidates ambiguous (best " +
                        std::to_string(best_error) + ", runner-up " +
                        std::to_string(runner_up_error) + "); probing caps");
  } else if (probing_ && now_s >= probe_log_next_s_) {
    probe_log_next_s_ = now_s + 15.0;
    util::log_debug("job-endpoint",
                    job_name_ + ": probing... best='" + *winner_name + "' " +
                        std::to_string(best_error) + ", runner-up '" +
                        std::string(runner_up_name) + "' " +
                        std::to_string(runner_up_error) + ", clean_obs " +
                        std::to_string(modeler_.clean_observation_count()));
  }
}

void JobEndpointProcess::finish(double now_s) {
  reliable_.poll(now_s);
  JobGoodbyeMsg bye;
  bye.job_id = job_id_;
  bye.timestamp_s = now_s;
  reliable_.send(bye);
}

}  // namespace anor::cluster
